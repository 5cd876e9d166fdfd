// Package wcc computes connected components on every window of a
// temporal graph, postmortem-style. The paper focuses on PageRank but
// names connected components among the analyses the sliding-window
// formulation supports (Sec. 3.1); this engine reuses the same
// multi-window temporal CSR and window-level parallelism.
//
// Components are weak: edge direction is ignored (the per-window view
// merges in- and out-adjacency). Each window is solved with union-find
// (path halving + union by size) over the materialized window view.
package wcc

import (
	"pmpr/internal/events"
	"pmpr/internal/perwindow"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// Config controls a components run. Components always treat edges as
// undirected, whatever Directed builds.
type Config struct {
	perwindow.Config
	// KeepLabels retains each window's component labeling (otherwise
	// only summary statistics are kept).
	KeepLabels bool
}

// DefaultConfig mirrors the PageRank engine's defaults.
func DefaultConfig() Config { return Config{Config: perwindow.DefaultConfig()} }

// WindowResult summarizes one window's component structure.
type WindowResult struct {
	Window         int
	ActiveVertices int32
	// Components is the number of connected components among active
	// vertices (isolated vertices are not counted).
	Components int32
	// LargestSize is the vertex count of the largest component.
	LargestSize int32

	labels []int32 // per-local-vertex component root, -1 for inactive
	mw     *tcsr.MultiWindow
}

// Label returns the component id of the global vertex (an arbitrary but
// consistent active vertex id within the window), or -1 when the vertex
// is inactive or labels were not kept.
func (r *WindowResult) Label(global int32) int32 {
	if r.labels == nil {
		return -1
	}
	local := r.mw.LocalID(global)
	if local < 0 {
		return -1
	}
	if l := r.labels[local]; l >= 0 {
		return r.mw.GlobalID(l)
	}
	return -1
}

// SameComponent reports whether two global vertices are connected in
// this window. It requires kept labels.
func (r *WindowResult) SameComponent(a, b int32) bool {
	la, lb := r.Label(a), r.Label(b)
	return la >= 0 && la == lb
}

// Series is the per-window component summary sequence.
type Series = perwindow.Series[WindowResult]

// Engine computes the series.
type Engine = perwindow.Engine[WindowResult]

// NewEngine builds the temporal representation for l under spec.
func NewEngine(l *events.Log, spec events.WindowSpec, cfg Config, pool *sched.Pool) (*Engine, error) {
	return perwindow.New("wcc", l, spec, cfg.Config, pool, cfg.solver)
}

// NewEngineFromTemporal reuses an existing representation.
func NewEngineFromTemporal(tg *tcsr.Temporal, cfg Config, pool *sched.Pool) (*Engine, error) {
	return perwindow.FromTemporal("wcc", tg, cfg.Config, pool, cfg.solver)
}

// solver returns one task's per-window components function; it owns
// the task's union-find.
func (c Config) solver() perwindow.Solver[WindowResult] {
	var uf unionFind
	return func(w int, mw *tcsr.MultiWindow, view *tcsr.WindowView) WindowResult {
		n := len(view.Active)
		res := WindowResult{Window: w, ActiveVertices: view.NumActive, mw: mw}
		uf.reset(n)
		for v := 0; v < n; v++ {
			for _, u := range view.Col[view.Row[v]:view.Row[v+1]] {
				uf.union(int32(v), u)
			}
		}
		// Count components and track the largest, over active vertices.
		var comps, largest int32
		for v := 0; v < n; v++ {
			if !view.Active[v] {
				continue
			}
			r := uf.find(int32(v))
			if int(r) == v {
				comps++
			}
			if uf.size[r] > largest {
				largest = uf.size[r]
			}
		}
		res.Components = comps
		res.LargestSize = largest
		if c.KeepLabels {
			labels := make([]int32, n)
			for v := 0; v < n; v++ {
				if view.Active[v] {
					labels[v] = uf.find(int32(v))
				} else {
					labels[v] = -1
				}
			}
			res.labels = labels
		}
		return res
	}
}

// unionFind is a reusable union-find with path halving and union by
// size.
type unionFind struct {
	parent []int32
	size   []int32
}

func (u *unionFind) reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
		u.size = make([]int32, n)
	}
	u.parent = u.parent[:n]
	u.size = u.size[:n]
	for i := 0; i < n; i++ {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
