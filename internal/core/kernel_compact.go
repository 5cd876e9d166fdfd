package core

import (
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// activeRuns is a batch's compact in-CSR in slot-major order: row
// v*K+k, the same interleaving as the kernels' vectors, lists in their
// original order the sources of v's in-runs that are active in slot k,
// so each (v, k) sum sees the same additions in the same order as a
// scan of every run would. With K = 1 it is the window's active
// in-CSR.
type activeRuns struct {
	row      []int64 // NumLocal*K+1 offsets into col
	col      []int32 // source vertex of each kept (run, slot) entry
	slotLen  []int64 // entries of each slot's rows
	distinct int64   // runs active in at least one slot
}

// buildActiveRuns compacts mw's in-runs for the batch windows
// [tsK[k], teK[k]]. bound is the plan's largest in-run count (at least
// mw's): col is drawn at K*bound and sliced down, so every batch asks
// the arena for the same sizes. The parallel pass writes slot k of v
// from K*mw.InRunRow[v] + k*runs(v) on, which no other (vertex, slot)
// writes; a serial O(n*K + kept) pass then closes the gaps.
func buildActiveRuns(mw *tcsr.MultiWindow, tsK, teK []int64, bound int, loop forLoop, sb *scratchBuf) activeRuns {
	n, K := int(mw.NumLocal()), len(tsK)
	ar := activeRuns{
		row:     sb.getI64(n*K + 1),
		col:     sb.getI32(K * bound),
		slotLen: sb.getI64(K),
	}
	laneKept := sb.getI64(sb.lanes())
	// The body captures few variables: its closure is a per-batch
	// allocation.
	loop(n, func(wk *sched.Worker, lo, hi int) {
		row, col := ar.row, ar.col
		inRow, inCol, inTime, runRow := mw.InRow, mw.InCol, mw.InTime, mw.InRunRow
		var kept int64
		for v := lo; v < hi; v++ {
			cnt := row[v*K+1:][:K]
			runs := runRow[v+1] - runRow[v]
			base := int64(K) * runRow[v]
			i, end := inRow[v], inRow[v+1]
			for i < end {
				j := i + 1
				c := inCol[i]
				for j < end && inCol[j] == c {
					j++
				}
				times := inTime[i:j]
				hit := false
				for k := range cnt {
					if tcsr.RunActive(times, tsK[k], teK[k]) {
						col[base+int64(k)*runs+cnt[k]] = c
						cnt[k]++
						hit = true
					}
				}
				if hit {
					kept++
				}
				i = j
			}
		}
		laneKept[laneOf(wk)] += kept
	})
	for _, c := range laneKept {
		ar.distinct += c
	}
	sb.putI64(laneKept)
	row, col, runRow := ar.row, ar.col, mw.InRunRow
	var off int64
	for v := 0; v < n; v++ {
		runs := runRow[v+1] - runRow[v]
		for k := 0; k < K; k++ {
			cnt, src := row[v*K+k+1], int64(K)*runRow[v]+int64(k)*runs
			if src != off && cnt > 0 {
				copy(col[off:off+cnt], col[src:src+cnt])
			}
			off += cnt
			ar.slotLen[k] += cnt
			row[v*K+k+1] = off
		}
	}
	ar.col = col[:off]
	return ar
}

// slotState fills a batch's window state from its compact rows, all
// interleaved (v*K+k): inverse out-degrees, 0 for dangling or absent
// vertices, and activity flags, plus, when vmask is non-nil, each
// vertex's ceil(K/64)-word mask of its active slots. A vertex is active
// in slot k with an in- or an out-edge there. An undirected build's
// out-runs are its in-runs, so row (v, k)'s length is v's out-degree;
// in a directed build u's out-degree in slot k is the number of rows
// (v, k) that list u, counted in one serial O(n*K + kept) pass. It
// returns each slot's active-vertex count, drawn from the arena.
func (ar activeRuns) slotState(undirected bool, invdeg []float64, active []bool, vmask []uint64, loop forLoop, sb *scratchBuf) []int32 {
	row, col := ar.row, ar.col
	K := len(ar.slotLen)
	n := (len(row) - 1) / K
	if !undirected {
		for r := 0; r < n*K; r++ {
			k := r % K
			for _, c := range col[row[r]:row[r+1]] {
				invdeg[int(c)*K+k]++
			}
		}
	}
	words := (K + 63) / 64
	lanes := sb.lanes()
	laneCnt := sb.getI32(lanes * K)
	loop(n, func(wk *sched.Worker, lo, hi int) {
		cnt := laneCnt[laneOf(wk)*K:][:K]
		for v := lo; v < hi; v++ {
			for k := range cnt {
				i := v*K + k
				in := row[i+1] - row[i]
				if undirected {
					invdeg[i] = float64(in)
				}
				if invdeg[i] == 0 && in == 0 {
					continue
				}
				if invdeg[i] > 0 {
					invdeg[i] = 1 / invdeg[i]
				}
				active[i] = true
				if vmask != nil {
					vmask[v*words+(k>>6)] |= 1 << (k & 63)
				}
				cnt[k]++
			}
		}
	})
	na := sb.getI32(K)
	for l := 0; l < lanes; l++ {
		for k := range na {
			na[k] += laneCnt[l*K+k]
		}
	}
	sb.putI32(laneCnt)
	return na
}

// release returns the compact CSR's buffers to the arena.
func (ar activeRuns) release(sb *scratchBuf) {
	sb.putI64(ar.row)
	sb.putI32(ar.col)
	sb.putI64(ar.slotLen)
}
