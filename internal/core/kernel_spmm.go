package core

import (
	"math"
	"math/bits"

	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// spmmKernel advances the PageRank vectors of a whole batch of windows
// (all in one multi-window graph) simultaneously — the SpMM-inspired
// kernel of paper Sec. 4.4. Vectors are interleaved — entry (v, k)
// lives at v*K+k — so the random accesses of the pull pass hit one
// cache line for all K windows, which is the SpMM effect the paper
// exploits.
//
// Working memory is drawn from the batch's scratch lease and returned
// in Finalize; only the K per-window rank vectors stay checked out
// (the driver recycles them once consumed). Cross-leaf reductions use
// lane-indexed K-wide slots — lane l owns [l*K, (l+1)*K) — summed
// serially between passes, so the leaves of the steady-state iteration
// loop neither allocate nor touch atomics.
type spmmKernel struct{}

func init() { RegisterKernel(spmmKernel{}) }

// spmmState is the kernel's per-batch working set; the interleaved x
// and y swap through the state pointer so the bound passes track them
// for free.
type spmmState struct {
	tsK, teK     []int64
	runs         activeRuns
	verts        []int32
	liveMask     []uint64
	invdeg       []float64
	active       []bool
	na           []int32
	x, y, z      []float64
	laneDangling []float64
	laneDelta    []float64
	laneAcc      []float64
	baseK        []float64
	pass1, pass2 sched.Body
}

// Name is the registry key.
func (spmmKernel) Name() string { return "spmm" }

// BatchWidth is Config.VectorLen: the number of windows one sweep of
// the shared temporal CSR advances.
func (spmmKernel) BatchWidth(cfg *Config) int { return cfg.VectorLen }

// Init builds the batch's compact in-CSR, stages the interleaved window
// states and starting vectors (Eq. 4 per slot where a predecessor
// vector is supplied, uniform otherwise), binds the two sweep passes,
// and marks non-empty slots live.
func (spmmKernel) Init(b *Batch) {
	mw := b.mw
	n := int(mw.NumLocal())
	K := b.width()
	sb, loop := b.scratch, b.loop
	opt := b.cfg.Opts
	lanes := sb.lanes()
	s := &spmmState{}
	b.state = s

	tsK := sb.getI64(K)
	teK := sb.getI64(K)
	for k := range b.views {
		tsK[k], teK[k] = b.views[k].Ts, b.views[k].Te
	}
	s.tsK, s.teK = tsK, teK

	// The batch's compact in-CSR: every in-run active in at least one
	// slot, with its window mask. Pass 2 walks only these runs.
	runs := buildActiveRuns(mw, tsK, teK, true, b.runBound, loop, sb)
	s.runs = runs
	b.keptRuns = int64(len(runs.col))
	words := runs.words
	row, col, mask := runs.row, runs.col, runs.mask

	// Per-window inverse out-degrees and activity flags, interleaved,
	// with |V_i| per window reduced via lanes. A vertex is active in
	// slot k when it has an in- or an out-edge there. Bit k of a run in
	// its compact row is an in-edge; in an undirected build, whose
	// out-runs are its in-runs, it is also an out-edge, so the row
	// gives the out-degree counts too. A directed build counts them on
	// its out-CSR. Counts are inverted in place.
	invdeg := sb.getF64(n * K)
	active := sb.getBool(n * K)
	laneCnt := sb.getI32(lanes * K)
	undirected := mw.OutColAliased()
	loop(n, func(wk *sched.Worker, lo, hi int) {
		cnt := laneCnt[laneOf(wk)*K:][:K]
		for v := lo; v < hi; v++ {
			deg := invdeg[v*K:][:K]
			act := active[v*K:][:K]
			for i := row[v]; i < row[v+1]; i++ {
				for w, m := range mask[i*int64(words):][:words] {
					for ; m != 0; m &= m - 1 {
						k := w<<6 + bits.TrailingZeros64(m)
						act[k] = true
						if undirected {
							deg[k]++
						}
					}
				}
			}
			if !undirected {
				i, end := mw.OutRow[v], mw.OutRow[v+1]
				for i < end {
					j := i + 1
					c := mw.OutCol[i]
					for j < end && mw.OutCol[j] == c {
						j++
					}
					times := mw.OutTime[i:j]
					for k := range deg {
						if tcsr.RunActive(times, tsK[k], teK[k]) {
							deg[k]++
						}
					}
					i = j
				}
			}
			for k, d := range deg {
				if d > 0 {
					deg[k] = 1 / d
					act[k] = true
				}
				if act[k] {
					cnt[k]++
				}
			}
		}
	})
	s.invdeg = invdeg
	s.active = active
	na := sb.getI32(K)
	for k := 0; k < K; k++ {
		for l := 0; l < lanes; l++ {
			na[k] += laneCnt[l*K+k]
		}
		b.results[k].ActiveVertices = na[k]
		if na[k] > 0 {
			b.markLive(k)
		} else {
			b.results[k].Converged = true
		}
	}
	sb.putI32(laneCnt)
	s.na = na

	// The batch's vertices: those active in at least one slot. Every
	// other vertex holds rank 0 in every slot throughout, so the sweeps
	// skip it.
	verts := sb.getI32(n)
	nv := 0
	for v := 0; v < n; v++ {
		for _, a := range active[v*K:][:K] {
			if a {
				verts[nv] = int32(v)
				nv++
				break
			}
		}
	}
	s.verts = verts[:nv]

	// Initialization: Eq. 4 per window slot where a predecessor vector
	// is supplied, uniform otherwise.
	x := sb.getF64(n * K)
	y := sb.getF64(n * K)
	z := sb.getF64(n * K)
	s.x, s.y, s.z = x, y, z
	inits := b.inits
	laneSharedN := sb.getI64(lanes * K)
	laneSharedSum := sb.getF64(lanes * K)
	loop(n, func(wk *sched.Worker, lo, hi int) {
		lane := laneOf(wk)
		cnt := laneSharedN[lane*K:][:K]
		sum := laneSharedSum[lane*K:][:K]
		for v := lo; v < hi; v++ {
			for k := 0; k < K; k++ {
				if p := inits[k]; p != nil && active[v*K+k] && p[v] > 0 {
					cnt[k]++
					sum[k] += p[v]
				}
			}
		}
	})
	scale := sb.getF64(K)
	uniform := sb.getF64(K)
	partial := sb.getBool(K)
	for k := 0; k < K; k++ {
		if na[k] == 0 {
			continue
		}
		uniform[k] = 1 / float64(na[k])
		var sh int64
		var sm float64
		for l := 0; l < lanes; l++ {
			sh += laneSharedN[l*K+k]
			sm += laneSharedSum[l*K+k]
		}
		if inits[k] != nil && sh > 0 && sm > 0 {
			scale[k] = float64(sh) / float64(na[k]) / sm
			partial[k] = true
			b.results[k].UsedPartialInit = true
		}
	}
	sb.putI64(laneSharedN)
	sb.putF64(laneSharedSum)
	loop(n, func(_ *sched.Worker, lo, hi int) {
		for v := lo; v < hi; v++ {
			for k := 0; k < K; k++ {
				switch {
				case !active[v*K+k]:
					x[v*K+k] = 0
				case partial[k] && inits[k][v] > 0:
					x[v*K+k] = inits[k][v] * scale[k]
				default:
					x[v*K+k] = uniform[k]
				}
			}
		}
	})

	laneDangling := sb.getF64(lanes * K)
	laneDelta := sb.getF64(lanes * K)
	laneAcc := sb.getF64(lanes * K)
	baseK := sb.getF64(K)
	s.laneDangling, s.laneDelta, s.laneAcc, s.baseK = laneDangling, laneDelta, laneAcc, baseK
	isLive := b.isLive

	// Pass 1 (by source): scaled contributions + dangling mass.
	s.pass1 = func(wk *sched.Worker, lo, hi int) {
		xv := s.x
		live := b.live
		d := laneDangling[laneOf(wk)*K:][:K]
		for _, u32 := range verts[lo:hi] {
			u := int(u32)
			for _, k := range live {
				z[u*K+k] = xv[u*K+k] * invdeg[u*K+k]
				if active[u*K+k] && invdeg[u*K+k] == 0 {
					d[k] += xv[u*K+k]
				}
			}
		}
	}
	// Pass 2 (by target): one sweep of the compact CSR advances all
	// live windows; a run adds to the slots of its mask that are live.
	liveMask := sb.getU64(words)
	s.liveMask = liveMask
	s.pass2 = func(wk *sched.Worker, lo, hi int) {
		xv, yv := s.x, s.y
		live := b.live
		lane := laneOf(wk)
		acc := laneAcc[lane*K:][:K]
		dl := laneDelta[lane*K:][:K]
		for _, v32 := range verts[lo:hi] {
			v := int(v32)
			for _, k := range live {
				acc[k] = 0
			}
			for i := row[v]; i < row[v+1]; i++ {
				zc := z[int(col[i])*K:][:K]
				for w, m := range mask[i*int64(words):][:words] {
					for m &= liveMask[w]; m != 0; m &= m - 1 {
						k := w<<6 + bits.TrailingZeros64(m)
						acc[k] += zc[k]
					}
				}
			}
			for k := 0; k < K; k++ {
				if !isLive[k] {
					// Keep converged windows' entries current so the
					// array swap does not resurrect stale iterates.
					yv[v*K+k] = xv[v*K+k]
					continue
				}
				if !active[v*K+k] {
					yv[v*K+k] = 0
					continue
				}
				nv := baseK[k] + (1-opt.Alpha)*acc[k]
				dl[k] += math.Abs(nv - xv[v*K+k])
				yv[v*K+k] = nv
			}
		}
	}

	sb.putF64(scale)
	sb.putF64(uniform)
	sb.putBool(partial)
}

// Iterate runs one shared-CSR sweep advancing all live slots: pass 1,
// the per-slot dangling reductions, pass 2, and the vector swap.
func (spmmKernel) Iterate(b *Batch) {
	s := b.state.(*spmmState)
	K := b.width()
	n := len(s.verts)
	lanes := b.scratch.lanes()
	alpha := b.cfg.Opts.Alpha
	clear(s.laneDangling)
	clear(s.laneDelta)
	clear(s.liveMask)
	for _, k := range b.live {
		s.liveMask[k>>6] |= 1 << (k & 63)
	}
	b.loop(n, s.pass1)
	for _, k := range b.live {
		var d float64
		for l := 0; l < lanes; l++ {
			d += s.laneDangling[l*K+k]
		}
		invNA := 1 / float64(s.na[k])
		s.baseK[k] = alpha*invNA + (1-alpha)*d*invNA
	}
	b.loop(n, s.pass2)
	s.x, s.y = s.y, s.x
}

// Residual sums slot's lane deltas of the last sweep.
func (spmmKernel) Residual(b *Batch, slot int) float64 {
	s := b.state.(*spmmState)
	K := b.width()
	lanes := b.scratch.lanes()
	var delta float64
	for l := 0; l < lanes; l++ {
		delta += s.laneDelta[l*K+slot]
	}
	return delta
}

// Finalize de-interleaves each slot's rank vector into its result and
// returns all working memory.
func (spmmKernel) Finalize(b *Batch) {
	s := b.state.(*spmmState)
	sb := b.scratch
	n := int(b.mw.NumLocal())
	K := b.width()
	for k := 0; k < K; k++ {
		ranks := sb.getF64(n)
		for v := 0; v < n; v++ {
			ranks[v] = s.x[v*K+k]
		}
		b.results[k].ranks = ranks
	}
	sb.putF64(s.x)
	sb.putF64(s.y)
	sb.putF64(s.z)
	sb.putF64(s.invdeg)
	sb.putBool(s.active)
	s.runs.release(sb)
	sb.putI32(s.verts)
	sb.putU64(s.liveMask)
	sb.putI64(s.tsK)
	sb.putI64(s.teK)
	sb.putI32(s.na)
	sb.putF64(s.laneDangling)
	sb.putF64(s.laneDelta)
	sb.putF64(s.laneAcc)
	sb.putF64(s.baseK)
	b.state = nil
}
