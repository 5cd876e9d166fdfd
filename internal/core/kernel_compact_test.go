package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/tcsr"
)

// The tests in this file pin the compact pull sweep to the sweep it
// replaced, bit for bit. The oracle below is that sweep: every in-run of
// the multi-window graph is tested against every live window with
// tcsr.RunActive, on every iteration, and the window state comes from
// full scans of both CSR sides.

// scanState is the oracle window state of one slot: inverse
// out-degrees and activity, from RunActive scans of both sides.
func scanState(mw *tcsr.MultiWindow, ts, te int64, directed bool) (invdeg []float64, active []bool) {
	n := int(mw.NumLocal())
	invdeg = make([]float64, n)
	active = make([]bool, n)
	runs := func(row []int64, col []int32, tim []int64, v int, fn func(c int32, times []int64)) {
		i, end := row[v], row[v+1]
		for i < end {
			j := i + 1
			for j < end && col[j] == col[i] {
				j++
			}
			fn(col[i], tim[i:j])
			i = j
		}
	}
	for v := 0; v < n; v++ {
		deg := 0
		runs(mw.OutRow, mw.OutCol, mw.OutTime, v, func(_ int32, times []int64) {
			if tcsr.RunActive(times, ts, te) {
				deg++
			}
		})
		if deg > 0 {
			invdeg[v] = 1 / float64(deg)
			active[v] = true
		}
		if directed {
			runs(mw.InRow, mw.InCol, mw.InTime, v, func(_ int32, times []int64) {
				if tcsr.RunActive(times, ts, te) {
					active[v] = true
				}
			})
		}
	}
	return invdeg, active
}

// scanSweep is one serial SpMM iteration the way the kernel ran it
// before compaction: pass 1 over every vertex, then pass 2 over every
// in-run with one RunActive test per live window. x, invdeg and active
// are interleaved (v*K+k). It returns the new iterate, z, the base
// terms and the per-slot residuals.
func scanSweep(mw *tcsr.MultiWindow, tsK, teK []int64, live []int, isLive []bool,
	x, invdeg []float64, active []bool, na []int32, alpha float64) (y, z, baseK, delta []float64) {
	n, K := int(mw.NumLocal()), len(tsK)
	y = make([]float64, n*K)
	z = make([]float64, n*K)
	baseK = make([]float64, K)
	delta = make([]float64, K)
	d := make([]float64, K)
	for u := 0; u < n; u++ {
		for _, k := range live {
			z[u*K+k] = x[u*K+k] * invdeg[u*K+k]
			if active[u*K+k] && invdeg[u*K+k] == 0 {
				d[k] += x[u*K+k]
			}
		}
	}
	for _, k := range live {
		invNA := 1 / float64(na[k])
		baseK[k] = alpha*invNA + (1-alpha)*d[k]*invNA
	}
	acc := make([]float64, K)
	for v := 0; v < n; v++ {
		for _, k := range live {
			acc[k] = 0
		}
		i, end := mw.InRow[v], mw.InRow[v+1]
		for i < end {
			j := i + 1
			c := mw.InCol[i]
			for j < end && mw.InCol[j] == c {
				j++
			}
			times := mw.InTime[i:j]
			for _, k := range live {
				if tcsr.RunActive(times, tsK[k], teK[k]) {
					acc[k] += z[int(c)*K+k]
				}
			}
			i = j
		}
		for k := 0; k < K; k++ {
			if !isLive[k] {
				y[v*K+k] = x[v*K+k]
				continue
			}
			if !active[v*K+k] {
				continue
			}
			nv := baseK[k] + (1-alpha)*acc[k]
			delta[k] += math.Abs(nv - x[v*K+k])
			y[v*K+k] = nv
		}
	}
	return y, z, baseK, delta
}

// compactFixture builds one multi-window graph of 80 windows and
// stages a K-slot batch over windows spread across it. Vertex 60 only
// receives edges, so a directed build has active vertices without
// out-edges. With partial set, every slot gets a predecessor vector,
// so Init takes the Eq. 4 path.
func compactFixture(t *testing.T, directed, partial bool, K int) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	evs := make([]events.Event, 6000)
	for i := range evs {
		evs[i] = ev(int32(rng.Intn(60)), int32(rng.Intn(61)), int64(2*i))
	}
	l, err := events.NewLog(evs, 61)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		l = l.Symmetrize()
	}
	spec, err := events.Span(l, 600, 90)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Count < 80 {
		t.Fatalf("fixture has %d windows, want >= 80", spec.Count)
	}
	spec.Count = 80
	tg, err := tcsr.Build(l, spec, 1, directed)
	if err != nil {
		t.Fatal(err)
	}
	mw := tg.MWs[0]
	n := int(mw.NumLocal())
	cfg := DefaultConfig()
	cfg.Directed = directed
	sb, _ := newScratchArena(0).acquire(-1)
	b := &Batch{
		mw:       mw,
		cfg:      &cfg,
		scratch:  sb,
		loop:     serialLoop,
		runBound: int(mw.NumInRuns()),
		views:    make([]tcsr.SolveView, K),
		inits:    make([][]float64, K),
		results:  make([]WindowResult, K),
		isLive:   make([]bool, K),
	}
	for k := 0; k < K; k++ {
		b.views[k] = mw.ViewOf(mw.WinLo + k*spec.Count/K)
		if partial {
			p := make([]float64, n)
			for v := range p {
				if (v+k)%3 != 0 {
					p[v] = float64(v%7+1) / float64(n)
				}
			}
			b.inits[k] = p
		}
	}
	return b
}

// retire mirrors runBatch retiring slot s after a converged sweep.
func retire(b *Batch, s int) {
	b.isLive[s] = false
	next := b.live[:0]
	for _, k := range b.live {
		if k != s {
			next = append(next, k)
		}
	}
	b.live = next
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCompactSpMMSweepBitIdenticalToScan runs the SpMM kernel on
// directed and undirected builds, K ∈ {1, 8, 70} (70 takes two mask
// words), with and without partial initialization, retiring slots
// mid-batch, and compares its window state and every sweep's iterate,
// z, base terms and residuals with the scan oracle bit for bit.
func TestCompactSpMMSweepBitIdenticalToScan(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, K := range []int{1, 8, 70} {
			for _, partial := range []bool{false, true} {
				label := fmt.Sprintf("directed=%v/K=%d/partial=%v", directed, K, partial)
				t.Run(label, func(t *testing.T) {
					b := compactFixture(t, directed, partial, K)
					mw := b.mw
					n := int(mw.NumLocal())
					spmmKernel{}.Init(b)
					defer spmmKernel{}.Finalize(b)
					s := b.state.(*spmmState)

					invdeg := make([]float64, n*K)
					active := make([]bool, n*K)
					for k, view := range b.views {
						inv, act := scanState(mw, view.Ts, view.Te, directed)
						for v := 0; v < n; v++ {
							invdeg[v*K+k], active[v*K+k] = inv[v], act[v]
						}
					}
					for i := range invdeg {
						if !sameBits(s.invdeg[i], invdeg[i]) || s.active[i] != active[i] {
							t.Fatalf("vertex %d slot %d: state (%v, %v), oracle (%v, %v)",
								i/K, i%K, s.invdeg[i], s.active[i], invdeg[i], active[i])
						}
					}
					if len(b.live) < 2 && K > 1 {
						t.Fatalf("only %d live slots; the fixture should exercise retiring", len(b.live))
					}

					alpha := b.cfg.Opts.Alpha
					for it := 0; it < 8; it++ {
						switch it {
						case 3: // retire every other live slot
							for i, k := range append([]int(nil), b.live...) {
								if i%2 == 1 {
									retire(b, k)
								}
							}
						case 5:
							if len(b.live) > 0 {
								retire(b, b.live[0])
							}
						}
						if len(b.live) == 0 {
							break
						}
						x := append([]float64(nil), s.x...)
						live := append([]int(nil), b.live...)
						isLive := append([]bool(nil), b.isLive...)
						y, z, baseK, delta := scanSweep(mw, s.tsK, s.teK, live, isLive, x, invdeg, active, s.na, alpha)
						spmmKernel{}.Iterate(b)
						for _, k := range live {
							if !sameBits(s.baseK[k], baseK[k]) {
								t.Fatalf("sweep %d slot %d: base %v, oracle %v", it, k, s.baseK[k], baseK[k])
							}
							if got := (spmmKernel{}).Residual(b, k); !sameBits(got, delta[k]) {
								t.Fatalf("sweep %d slot %d: residual %v, oracle %v", it, k, got, delta[k])
							}
							for v := 0; v < n; v++ {
								if !sameBits(s.z[v*K+k], z[v*K+k]) {
									t.Fatalf("sweep %d slot %d vertex %d: z %v, oracle %v", it, k, v, s.z[v*K+k], z[v*K+k])
								}
							}
						}
						for i := range y {
							if !sameBits(s.x[i], y[i]) {
								t.Fatalf("sweep %d vertex %d slot %d: %v, oracle %v", it, i/K, i%K, s.x[i], y[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestCompactSpMVSweepBitIdenticalToScan is the single-window
// counterpart: the SpMV kernel's mask-free compact CSR against the
// scan oracle with K = 1.
func TestCompactSpMVSweepBitIdenticalToScan(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, partial := range []bool{false, true} {
			label := fmt.Sprintf("directed=%v/partial=%v", directed, partial)
			t.Run(label, func(t *testing.T) {
				b := compactFixture(t, directed, partial, 1)
				b.views[0] = b.mw.ViewOf(b.mw.WinLo + 41)
				mw := b.mw
				spmvKernel{}.Init(b)
				defer spmvKernel{}.Finalize(b)
				s := b.state.(*spmvState)
				view := b.views[0]
				invdeg, active := scanState(mw, view.Ts, view.Te, directed)
				if sink := mw.LocalID(60); directed && (sink < 0 || !active[sink]) {
					t.Fatal("fixture window has no active in-only vertex")
				}
				for v := range invdeg {
					if !sameBits(s.invdeg[v], invdeg[v]) || s.active[v] != active[v] {
						t.Fatalf("vertex %d: state (%v, %v), oracle (%v, %v)",
							v, s.invdeg[v], s.active[v], invdeg[v], active[v])
					}
				}
				if len(b.live) != 1 {
					t.Fatal("fixture window is empty")
				}
				tsK, teK := []int64{view.Ts}, []int64{view.Te}
				na := []int32{b.results[0].ActiveVertices}
				for it := 0; it < 6; it++ {
					x := append([]float64(nil), s.x...)
					y, _, _, delta := scanSweep(mw, tsK, teK, []int{0}, []bool{true}, x, invdeg, active, na, b.cfg.Opts.Alpha)
					spmvKernel{}.Iterate(b)
					if got := (spmvKernel{}).Residual(b, 0); !sameBits(got, delta[0]) {
						t.Fatalf("sweep %d: residual %v, oracle %v", it, got, delta[0])
					}
					for v := range y {
						if !sameBits(s.x[v], y[v]) {
							t.Fatalf("sweep %d vertex %d: %v, oracle %v", it, v, s.x[v], y[v])
						}
					}
				}
			})
		}
	}
}

// TestBuildActiveRunsSlotMajor checks the slot-major compact CSR
// against a brute-force RunActive listing: row (v, k) holds, in run
// order, the sources of v's in-runs active in slot k. It also checks
// the per-slot entry counts against each window's active edges, the
// distinct-run count, and the vertex slot masks slotState derives.
func TestBuildActiveRunsSlotMajor(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, K := range []int{1, 3, 8, 70} {
			t.Run(fmt.Sprintf("directed=%v/K=%d", directed, K), func(t *testing.T) {
				b := compactFixture(t, directed, false, K)
				mw, sb := b.mw, b.scratch
				n := int(mw.NumLocal())
				tsK, teK := make([]int64, K), make([]int64, K)
				for k, view := range b.views {
					tsK[k], teK[k] = view.Ts, view.Te
				}
				ar := buildActiveRuns(mw, tsK, teK, b.runBound, serialLoop, sb)
				defer ar.release(sb)
				if len(ar.row) != n*K+1 {
					t.Fatalf("%d row offsets, want %d", len(ar.row), n*K+1)
				}
				var distinct int64
				slotLen := make([]int64, K)
				for v := 0; v < n; v++ {
					want := make([][]int32, K)
					i, end := mw.InRow[v], mw.InRow[v+1]
					for i < end {
						j := i + 1
						for j < end && mw.InCol[j] == mw.InCol[i] {
							j++
						}
						hit := false
						for k := 0; k < K; k++ {
							if tcsr.RunActive(mw.InTime[i:j], tsK[k], teK[k]) {
								want[k] = append(want[k], mw.InCol[i])
								hit = true
							}
						}
						if hit {
							distinct++
						}
						i = j
					}
					for k := 0; k < K; k++ {
						got := ar.col[ar.row[v*K+k]:ar.row[v*K+k+1]]
						if !slices.Equal(got, want[k]) {
							t.Fatalf("row (%d, %d) = %v, want %v", v, k, got, want[k])
						}
						slotLen[k] += int64(len(want[k]))
					}
				}
				if ar.distinct != distinct {
					t.Fatalf("distinct runs %d, want %d", ar.distinct, distinct)
				}
				for k, view := range b.views {
					if ar.slotLen[k] != slotLen[k] || slotLen[k] != mw.ActiveEdges(view.W) {
						t.Fatalf("slot %d: %d entries, want %d = active edges %d",
							k, ar.slotLen[k], slotLen[k], mw.ActiveEdges(view.W))
					}
				}

				words := (K + 63) / 64
				invdeg := make([]float64, n*K)
				active := make([]bool, n*K)
				vmask := make([]uint64, n*words)
				na := ar.slotState(mw.OutColAliased(), invdeg, active, vmask, serialLoop, sb)
				defer sb.putI32(na)
				for k, view := range b.views {
					inv, act := scanState(mw, view.Ts, view.Te, directed)
					var cnt int32
					for v := 0; v < n; v++ {
						bit := vmask[v*words+k/64]>>(k%64)&1 == 1
						if !sameBits(invdeg[v*K+k], inv[v]) || active[v*K+k] != act[v] || bit != act[v] {
							t.Fatalf("vertex %d slot %d: (%v, %v, mask %v), oracle (%v, %v)",
								v, k, invdeg[v*K+k], active[v*K+k], bit, inv[v], act[v])
						}
						if act[v] {
							cnt++
						}
					}
					if na[k] != cnt {
						t.Fatalf("slot %d: %d active vertices, want %d", k, na[k], cnt)
					}
				}
			})
		}
	}
}

// TestSpMMRetiredSlotFrozen retires a slot, runs two more sweeps, and
// checks that the slot's entries in both x and y, and the vector
// Finalize publishes, equal its last iterate bit for bit.
func TestSpMMRetiredSlotFrozen(t *testing.T) {
	for _, directed := range []bool{true, false} {
		t.Run(fmt.Sprintf("directed=%v", directed), func(t *testing.T) {
			b := compactFixture(t, directed, true, 8)
			n, K := int(b.mw.NumLocal()), 8
			spmmKernel{}.Init(b)
			s := b.state.(*spmmState)
			if len(b.live) < 2 {
				t.Fatalf("only %d live slots", len(b.live))
			}
			spmmKernel{}.Iterate(b)
			spmmKernel{}.Iterate(b)
			slot := b.live[0]
			last := make([]float64, n)
			for v := range last {
				last[v] = s.x[v*K+slot]
			}
			retire(b, slot)
			spmmKernel{}.Iterate(b)
			spmmKernel{}.Iterate(b)
			for v := 0; v < n; v++ {
				if !sameBits(s.x[v*K+slot], last[v]) || !sameBits(s.y[v*K+slot], last[v]) {
					t.Fatalf("vertex %d: x %v, y %v, last iterate %v", v, s.x[v*K+slot], s.y[v*K+slot], last[v])
				}
			}
			spmmKernel{}.Finalize(b)
			for v, r := range b.results[slot].ranks {
				if !sameBits(r, last[v]) {
					t.Fatalf("vertex %d: published %v, last iterate %v", v, r, last[v])
				}
			}
		})
	}
}
