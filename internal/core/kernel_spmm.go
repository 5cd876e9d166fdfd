package core

import (
	"math"
	"math/bits"

	"pmpr/internal/sched"
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
// for free. liveMask holds the slots the last sweep advanced, and
// verts the vertices active in at least one of them.
type spmmState struct {
	tsK, teK     []int64
	runs         activeRuns
	verts        []int32
	vmask        []uint64 // ceil(K/64) words per vertex: its active slots
	liveMask     []uint64
	retired      []uint64 // slots retired since the last sweep
	invdeg       []float64
	active       []bool
	na           []int32
	x, y, z      []float64
	laneDangling []float64
	laneDelta    []float64
	baseK        []float64
	pass1, pass2 sched.Body
}

// Name is the registry key.
func (spmmKernel) Name() string { return "spmm" }

// BatchWidth is Config.VectorLen: the number of windows one sweep of
// the shared temporal CSR advances.
func (spmmKernel) BatchWidth(cfg *Config) int { return cfg.VectorLen }

// Init builds the batch's slot-major compact in-CSR and window state,
// stages the starting vectors (Eq. 4 per slot where a predecessor
// vector is supplied, uniform otherwise), binds the two sweep passes,
// and marks non-empty slots live. Both passes visit only the (vertex,
// slot) pairs set in vmask & liveMask; every other entry of y keeps
// its zero from the arena, or a retired slot's frozen iterate.
func (spmmKernel) Init(b *Batch) {
	mw := b.mw
	n := int(mw.NumLocal())
	K := b.width()
	words := (K + 63) / 64
	sb, loop := b.scratch, b.loop
	damp := 1 - b.cfg.Opts.Alpha
	lanes := sb.lanes()
	s := &spmmState{}
	b.state = s

	tsK := sb.getI64(K)
	teK := sb.getI64(K)
	for k := range b.views {
		tsK[k], teK[k] = b.views[k].Ts, b.views[k].Te
	}
	s.tsK, s.teK = tsK, teK

	runs := buildActiveRuns(mw, tsK, teK, b.runBound, loop, sb)
	s.runs = runs
	b.keptRuns, b.slotRuns = runs.distinct, runs.slotLen
	row, col := runs.row, runs.col

	invdeg := sb.getF64(n * K)
	active := sb.getBool(n * K)
	vmask := sb.getU64(n * words)
	na := runs.slotState(mw.OutColAliased(), invdeg, active, vmask, loop, sb)
	s.invdeg, s.active, s.vmask, s.na = invdeg, active, vmask, na
	for k := 0; k < K; k++ {
		b.results[k].ActiveVertices = na[k]
		if na[k] > 0 {
			b.markLive(k)
		} else {
			b.results[k].Converged = true
		}
	}
	liveMask := sb.getU64(words)
	for _, k := range b.live {
		liveMask[k>>6] |= 1 << (k & 63)
	}
	s.liveMask, s.retired = liveMask, sb.getU64(words)

	// The batch's vertices: those active in at least one slot. Every
	// other vertex holds rank 0 in every slot throughout, so the sweeps
	// skip it.
	verts := sb.getI32(n)
	nv := 0
	for v := 0; v < n; v++ {
		for _, m := range vmask[v*words:][:words] {
			if m != 0 {
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
	baseK := sb.getF64(K)
	s.laneDangling, s.laneDelta, s.baseK = laneDangling, laneDelta, baseK

	// Pass 1 (by source): scaled contributions + dangling mass.
	s.pass1 = func(wk *sched.Worker, lo, hi int) {
		xv := s.x
		d := laneDangling[laneOf(wk)*K:][:K]
		for _, u32 := range s.verts[lo:hi] {
			u := int(u32)
			for w, m := range vmask[u*words:][:words] {
				for m &= liveMask[w]; m != 0; m &= m - 1 {
					k := w<<6 + bits.TrailingZeros64(m)
					i := u*K + k
					z[i] = xv[i] * invdeg[i]
					if invdeg[i] == 0 {
						d[k] += xv[i]
					}
				}
			}
		}
	}
	// Pass 2 (by target): row (v, k) of the compact CSR sums slot k's
	// contributions into v.
	s.pass2 = func(wk *sched.Worker, lo, hi int) {
		xv, yv := s.x, s.y
		dl := laneDelta[laneOf(wk)*K:][:K]
		for _, v32 := range s.verts[lo:hi] {
			v := int(v32)
			for w, m := range vmask[v*words:][:words] {
				for m &= liveMask[w]; m != 0; m &= m - 1 {
					k := w<<6 + bits.TrailingZeros64(m)
					i := v*K + k
					var acc float64
					for _, c := range col[row[i]:row[i+1]] {
						acc += z[int(c)*K+k]
					}
					nv := baseK[k] + damp*acc
					dl[k] += math.Abs(nv - xv[i])
					yv[i] = nv
				}
			}
		}
	}

	sb.putF64(scale)
	sb.putF64(uniform)
	sb.putBool(partial)
}

// Iterate runs one shared-CSR sweep advancing all live slots: it
// freezes the slots retired since the last sweep, then runs pass 1,
// the per-slot dangling reductions, pass 2, and the vector swap.
func (spmmKernel) Iterate(b *Batch) {
	s := b.state.(*spmmState)
	K := b.width()
	lanes := b.scratch.lanes()
	alpha := b.cfg.Opts.Alpha
	// Live slots are a subset of the last sweep's; the difference is
	// the slots retired since.
	copy(s.retired, s.liveMask)
	clear(s.liveMask)
	for _, k := range b.live {
		s.liveMask[k>>6] |= 1 << (k & 63)
		s.retired[k>>6] &^= 1 << (k & 63)
	}
	s.retire(K)
	n := len(s.verts)
	clear(s.laneDangling)
	clear(s.laneDelta)
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

// retire freezes the slots set in s.retired: their final iterate is
// in x, and copying it into y once keeps it in both arrays through
// every later swap. It also drops, in order, the vertices left without
// a live active slot from verts, so the sweeps stop visiting them.
func (s *spmmState) retire(K int) {
	words := len(s.liveMask)
	retired := false
	for _, m := range s.retired {
		retired = retired || m != 0
	}
	if !retired {
		return
	}
	nv := 0
	for _, v32 := range s.verts {
		v := int(v32)
		keep := false
		for w, m := range s.vmask[v*words:][:words] {
			keep = keep || m&s.liveMask[w] != 0
			for m &= s.retired[w]; m != 0; m &= m - 1 {
				i := v*K + w<<6 + bits.TrailingZeros64(m)
				s.y[i] = s.x[i]
			}
		}
		if keep {
			s.verts[nv] = v32
			nv++
		}
	}
	s.verts = s.verts[:nv]
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
	sb.putU64(s.vmask)
	sb.putU64(s.liveMask)
	sb.putU64(s.retired)
	sb.putI64(s.tsK)
	sb.putI64(s.teK)
	sb.putI32(s.na)
	sb.putF64(s.laneDangling)
	sb.putF64(s.laneDelta)
	sb.putF64(s.baseK)
	b.state = nil
}
