// Package closeness computes harmonic closeness centrality on every
// window of a temporal graph, postmortem-style — the centrality family
// the paper names alongside PageRank for the sliding-window model
// (Sec. 3.1; the streaming incremental variants it cites are Sariyüce
// et al.'s). Harmonic closeness,
//
//	C(v) = sum_{u != v, d(v,u) < inf} 1 / d(v,u),
//
// is used instead of classic closeness because window graphs are
// routinely disconnected.
//
// Exact computation runs one BFS per active vertex per window. Because
// that is Theta(V*E) per window, the engine also supports the standard
// sampled approximation (Eppstein–Wang style): BFS from k sampled
// sources and scale by |V_active|/k. Sampling is deterministic per
// (window, seed).
package closeness

import (
	"pmpr/internal/events"
	"pmpr/internal/perwindow"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// Config controls a closeness run. Distances always use the undirected
// view, whatever Directed builds.
type Config struct {
	perwindow.Config
	// SampleSources > 0 approximates: per window, BFS only from that
	// many sampled active sources. 0 computes exactly.
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
	// Top is the vertex with the highest harmonic closeness (global
	// id), -1 for an empty window.
	Top int32
	// TopScore is Top's score.
	TopScore float64
	// SampledSources is the number of BFS sources used (== active count
	// when exact).
	SampledSources int32

	scores []float64
	mw     *tcsr.MultiWindow
}

// Score returns the (possibly approximated) harmonic closeness of the
// global vertex, or -1 when inactive or scores were not kept.
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
	if err := perwindow.CheckSample("closeness", cfg.SampleSources); err != nil {
		return nil, err
	}
	return perwindow.New("closeness", l, spec, cfg.Config, pool, cfg.solver)
}

// NewEngineFromTemporal reuses an existing representation.
func NewEngineFromTemporal(tg *tcsr.Temporal, cfg Config, pool *sched.Pool) (*Engine, error) {
	if err := perwindow.CheckSample("closeness", cfg.SampleSources); err != nil {
		return nil, err
	}
	return perwindow.FromTemporal("closeness", tg, cfg.Config, pool, cfg.solver)
}

// solver returns one task's per-window closeness function; it owns the
// task's BFS and source scratch.
func (c Config) solver() perwindow.Solver[WindowResult] {
	var b bfs
	src := perwindow.Sampler{Sample: c.SampleSources, Seed: c.Seed, Mix: 0x9E3779B97F4A7C}
	return func(w int, mw *tcsr.MultiWindow, view *tcsr.WindowView) WindowResult {
		sources, exact := src.Sources(w, view)
		scores := make([]float64, len(view.Active))
		// Harmonic closeness accumulates reciprocal distances at the
		// *visited* vertex: C(v) += 1/d(source, v) per BFS. With the
		// undirected view this equals summing over targets from v.
		for _, s := range sources {
			b.run(view, s, func(v int32, dist int32) {
				if dist > 0 {
					scores[v] += 1 / float64(dist)
				}
			})
		}
		if !exact {
			scale := float64(view.NumActive) / float64(len(sources))
			for v := range scores {
				scores[v] *= scale
			}
		}
		res := WindowResult{Window: w, ActiveVertices: view.NumActive, SampledSources: int32(len(sources)), mw: mw}
		res.Top, res.TopScore, res.scores = perwindow.Finish(mw, view, scores, c.KeepScores)
		return res
	}
}

// bfs is a reusable breadth-first search over a window view.
type bfs struct {
	dist  []int32
	queue []int32
	epoch int32
	seen  []int32 // seen[v] == epoch means dist[v] is valid
}

// run performs BFS from src, invoking visit(v, d) for every reached
// vertex (including src at distance 0).
func (b *bfs) run(view *tcsr.WindowView, src int32, visit func(v, d int32)) {
	n := len(view.Active)
	if cap(b.dist) < n {
		b.dist = make([]int32, n)
		b.seen = make([]int32, n)
		b.queue = make([]int32, 0, n)
	}
	b.dist = b.dist[:n]
	b.seen = b.seen[:n]
	b.epoch++
	b.queue = b.queue[:0]
	b.queue = append(b.queue, src)
	b.seen[src] = b.epoch
	b.dist[src] = 0
	for head := 0; head < len(b.queue); head++ {
		v := b.queue[head]
		visit(v, b.dist[v])
		for _, u := range view.Col[view.Row[v]:view.Row[v+1]] {
			if b.seen[u] != b.epoch {
				b.seen[u] = b.epoch
				b.dist[u] = b.dist[v] + 1
				b.queue = append(b.queue, u)
			}
		}
	}
}
