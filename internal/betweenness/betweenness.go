// Package betweenness computes betweenness centrality on every window
// of a temporal graph, postmortem-style — completing the centrality
// kernels the paper lists for the sliding-window model (Sec. 3.1; the
// streaming counterpart it cites is Green, McColl & Bader's).
//
// Each window runs Brandes' algorithm over the deduplicated undirected
// window view: one BFS + dependency accumulation per source. Exact
// computation uses every active vertex as a source (Theta(V*E) per
// window); SampleSources > 0 uses the standard sampled estimator
// (Bader et al.) scaled by |V_active|/k. As everywhere in this
// repository, windows are processed in parallel on the shared
// work-stealing pool.
package betweenness

import (
	"pmpr/internal/events"
	"pmpr/internal/perwindow"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// Config controls a betweenness run. Paths always use the undirected
// view, whatever Directed builds.
type Config struct {
	perwindow.Config
	// SampleSources > 0 estimates from that many sampled sources per
	// window; 0 computes exactly.
	SampleSources int
	// Seed drives source sampling.
	Seed int64
	// KeepScores retains each window's centrality vector.
	KeepScores bool
}

// DefaultConfig matches the other engines' defaults, with exact
// computation.
func DefaultConfig() Config { return Config{Config: perwindow.DefaultConfig()} }

// WindowResult summarizes one window.
type WindowResult struct {
	Window         int
	ActiveVertices int32
	// Top is the vertex with the highest betweenness (global id), -1
	// for an empty window.
	Top int32
	// TopScore is Top's score (undirected convention: each pair
	// counted once).
	TopScore float64
	// SampledSources is the number of Brandes sources used.
	SampledSources int32

	scores []float64
	mw     *tcsr.MultiWindow
}

// Score returns the (possibly estimated) betweenness of the global
// vertex, or -1 when inactive or scores were not kept.
func (r *WindowResult) Score(global int32) float64 {
	if r.scores == nil {
		return -1
	}
	local := r.mw.LocalID(global)
	if local < 0 {
		return -1
	}
	return r.scores[local]
}

// Series is the per-window sequence.
type Series = perwindow.Series[WindowResult]

// Engine computes the series.
type Engine = perwindow.Engine[WindowResult]

// NewEngine builds the temporal representation for l under spec.
func NewEngine(l *events.Log, spec events.WindowSpec, cfg Config, pool *sched.Pool) (*Engine, error) {
	if err := perwindow.CheckSample("betweenness", cfg.SampleSources); err != nil {
		return nil, err
	}
	return perwindow.New("betweenness", l, spec, cfg.Config, pool, cfg.solver)
}

// NewEngineFromTemporal reuses an existing representation.
func NewEngineFromTemporal(tg *tcsr.Temporal, cfg Config, pool *sched.Pool) (*Engine, error) {
	if err := perwindow.CheckSample("betweenness", cfg.SampleSources); err != nil {
		return nil, err
	}
	return perwindow.FromTemporal("betweenness", tg, cfg.Config, pool, cfg.solver)
}

// solver returns one task's per-window betweenness function; it owns
// the task's Brandes and source scratch.
func (c Config) solver() perwindow.Solver[WindowResult] {
	var br brandes
	src := perwindow.Sampler{Sample: c.SampleSources, Seed: c.Seed, Mix: 0x5851F42D4C957F2}
	return func(w int, mw *tcsr.MultiWindow, view *tcsr.WindowView) WindowResult {
		sources, exact := src.Sources(w, view)
		scores := make([]float64, len(view.Active))
		for _, s := range sources {
			br.accumulate(view, s, scores)
		}
		// Undirected convention: every pair is discovered from both
		// endpoints in an exact run, so halve; sampled runs scale instead.
		if exact {
			for v := range scores {
				scores[v] /= 2
			}
		} else {
			scale := float64(view.NumActive) / float64(len(sources)) / 2
			for v := range scores {
				scores[v] *= scale
			}
		}
		res := WindowResult{Window: w, ActiveVertices: view.NumActive, SampledSources: int32(len(sources)), mw: mw}
		res.Top, res.TopScore, res.scores = perwindow.Finish(mw, view, scores, c.KeepScores)
		return res
	}
}

// brandes holds the reusable per-source state of Brandes' algorithm.
type brandes struct {
	dist  []int32
	sigma []float64
	delta []float64
	stack []int32
	queue []int32
	preds [][]int32
}

// accumulate runs one Brandes source iteration, adding the dependency
// of every vertex on s into acc.
func (b *brandes) accumulate(view *tcsr.WindowView, s int32, acc []float64) {
	n := len(view.Active)
	if cap(b.dist) < n {
		b.dist = make([]int32, n)
		b.sigma = make([]float64, n)
		b.delta = make([]float64, n)
		b.stack = make([]int32, 0, n)
		b.queue = make([]int32, 0, n)
		b.preds = make([][]int32, n)
	}
	b.dist = b.dist[:n]
	b.sigma = b.sigma[:n]
	b.delta = b.delta[:n]
	b.preds = b.preds[:n]
	for v := 0; v < n; v++ {
		b.dist[v] = -1
		b.sigma[v] = 0
		b.delta[v] = 0
		b.preds[v] = b.preds[v][:0]
	}
	b.stack = b.stack[:0]

	b.dist[s] = 0
	b.sigma[s] = 1
	b.queue = append(b.queue[:0], s)
	for head := 0; head < len(b.queue); head++ {
		v := b.queue[head]
		b.stack = append(b.stack, v)
		for _, u := range view.Col[view.Row[v]:view.Row[v+1]] {
			if u == v {
				continue // self-loops carry no shortest paths
			}
			if b.dist[u] < 0 {
				b.dist[u] = b.dist[v] + 1
				b.queue = append(b.queue, u)
			}
			if b.dist[u] == b.dist[v]+1 {
				b.sigma[u] += b.sigma[v]
				b.preds[u] = append(b.preds[u], v)
			}
		}
	}
	for i := len(b.stack) - 1; i >= 0; i-- {
		v := b.stack[i]
		for _, p := range b.preds[v] {
			b.delta[p] += b.sigma[p] / b.sigma[v] * (1 + b.delta[v])
		}
		if v != s {
			acc[v] += b.delta[v]
		}
	}
}
