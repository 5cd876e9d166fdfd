// Package perwindow is the one driver behind the per-window analyses
// the paper lists next to PageRank for the sliding-window model
// (Sec. 3.1): connected components, k-core, closeness and betweenness.
// Each analysis is a per-window function over the materialized,
// undirected window view; the driver owns everything else: the
// multi-window temporal CSR build, validation, window-level scheduling
// on the shared pool, view materialization and scratch reuse.
package perwindow

import (
	"fmt"

	"pmpr/internal/events"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// Config holds the settings every per-window analysis shares.
type Config struct {
	// NumMultiWindows partitions the window sequence (see tcsr.Build).
	NumMultiWindows int
	// BalancedPartition splits by event load instead of uniformly.
	BalancedPartition bool
	// Directed controls the representation build; the analyses always
	// use the undirected window view. An undirected build expects a
	// symmetrized log (see tcsr.Build).
	Directed bool
	// Partitioner and Grain configure the window-level loop.
	Partitioner sched.Partitioner
	Grain       int
}

// DefaultConfig mirrors the PageRank engine's defaults.
func DefaultConfig() Config {
	return Config{NumMultiWindows: 6, Partitioner: sched.Auto, Grain: 2}
}

// Series is the per-window result sequence of one analysis.
type Series[R any] struct {
	Spec    events.WindowSpec
	Results []R
}

// Window returns the result for window i.
func (s *Series[R]) Window(i int) *R { return &s.Results[i] }

// Len returns the number of windows.
func (s *Series[R]) Len() int { return len(s.Results) }

// Solver computes window w's result from mw, the multi-window graph
// holding w, and view, w's materialized window view. The view is only
// valid for the call: the driver reuses its buffers for the next
// window.
type Solver[R any] func(w int, mw *tcsr.MultiWindow, view *tcsr.WindowView) R

// Engine runs one analysis over every window of a temporal
// representation.
type Engine[R any] struct {
	tg        *tcsr.Temporal
	cfg       Config
	pool      *sched.Pool
	newSolver func() Solver[R]
}

// New builds the temporal representation for l under spec. name
// prefixes error messages. newSolver is called once per scheduled
// task, so the Solver it returns may own scratch that it reuses across
// the task's windows.
func New[R any](name string, l *events.Log, spec events.WindowSpec, cfg Config, pool *sched.Pool, newSolver func() Solver[R]) (*Engine[R], error) {
	if cfg.NumMultiWindows < 1 {
		return nil, fmt.Errorf("%s: NumMultiWindows %d must be >= 1", name, cfg.NumMultiWindows)
	}
	build := tcsr.Build
	if cfg.BalancedPartition {
		build = tcsr.BuildBalanced
	}
	tg, err := build(l, spec, cfg.NumMultiWindows, cfg.Directed)
	if err != nil {
		return nil, err
	}
	return FromTemporal(name, tg, cfg, pool, newSolver)
}

// FromTemporal reuses an existing representation.
func FromTemporal[R any](name string, tg *tcsr.Temporal, cfg Config, pool *sched.Pool, newSolver func() Solver[R]) (*Engine[R], error) {
	if tg == nil {
		return nil, fmt.Errorf("%s: nil temporal representation", name)
	}
	return &Engine[R]{tg: tg, cfg: cfg, pool: pool, newSolver: newSolver}, nil
}

// Temporal exposes the representation.
func (e *Engine[R]) Temporal() *tcsr.Temporal { return e.tg }

// Run solves every window. Windows run in parallel on the pool (each
// window's solve is sequential, as in the offline model); a nil pool
// runs serially.
func (e *Engine[R]) Run() (*Series[R], error) {
	count := e.tg.Spec.Count
	results := make([]R, count)
	body := func(lo, hi int) {
		var view tcsr.WindowView
		solve := e.newSolver()
		for w := lo; w < hi; w++ {
			mw := e.tg.ForWindow(w)
			mw.Materialize(w, &view)
			results[w] = solve(w, mw, &view)
		}
	}
	if e.pool == nil {
		body(0, count)
	} else {
		e.pool.ParallelFor(count, max(e.cfg.Grain, 1), e.cfg.Partitioner, func(_ *sched.Worker, lo, hi int) {
			body(lo, hi)
		})
	}
	return &Series[R]{Spec: e.tg.Spec, Results: results}, nil
}
