package core

import (
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
)

// activeRuns is a batch's compact in-CSR: the multi-window graph's
// in-runs that are active in at least one of the batch's windows, in
// their original order, so each window's sums see the same additions in
// the same order as a scan of every run would. With masks, bit k of a
// kept run's words is set iff the run is active in slot k; without
// (the single-window SpMV batch) every kept run is active.
type activeRuns struct {
	row   []int64  // NumLocal+1 offsets into col
	col   []int32  // source vertex of each kept run
	mask  []uint64 // words per kept run; nil without masks
	words int      // ceil(K/64) with masks, else 0
}

// buildActiveRuns compacts mw's in-runs for the batch windows
// [tsK[k], teK[k]]. bound is the plan's largest in-run count (at least
// mw's): the run buffers are drawn at that size and sliced down, so
// every batch asks the arena for the same sizes. The parallel pass writes v's kept runs
// from slot mw.InRunRow[v] on, which no other vertex writes; a serial
// O(n + kept) pass then closes the gaps.
func buildActiveRuns(mw *tcsr.MultiWindow, tsK, teK []int64, withMask bool, bound int, loop forLoop, sb *scratchBuf) activeRuns {
	n := int(mw.NumLocal())
	words := 0
	if withMask {
		words = (len(tsK) + 63) / 64
	}
	ar := activeRuns{
		row:   sb.getI64(n + 1),
		col:   sb.getI32(bound),
		words: words,
	}
	if withMask {
		ar.mask = sb.getU64(bound * words)
	}
	// The body captures few variables: its closure is a per-batch
	// allocation.
	loop(n, func(_ *sched.Worker, lo, hi int) {
		row, col, mask, words := ar.row, ar.col, ar.mask, ar.words
		inRow, inCol, inTime, runRow := mw.InRow, mw.InCol, mw.InTime, mw.InRunRow
		for v := lo; v < hi; v++ {
			first := runRow[v]
			kept := first
			i, end := inRow[v], inRow[v+1]
			for i < end {
				j := i + 1
				c := inCol[i]
				for j < end && inCol[j] == c {
					j++
				}
				times := inTime[i:j]
				if words == 0 {
					if tcsr.RunActive(times, tsK[0], teK[0]) {
						col[kept] = c
						kept++
					}
				} else {
					m := mask[kept*int64(words):][:words]
					clear(m)
					hit := false
					for k := range tsK {
						if tcsr.RunActive(times, tsK[k], teK[k]) {
							m[k>>6] |= 1 << (k & 63)
							hit = true
						}
					}
					if hit {
						col[kept] = c
						kept++
					}
				}
				i = j
			}
			row[v+1] = kept - first
		}
	})
	row, col, mask, runRow := ar.row, ar.col, ar.mask, mw.InRunRow
	var off int64
	for v := 0; v < n; v++ {
		cnt, src := row[v+1], runRow[v]
		if src != off && cnt > 0 {
			copy(col[off:off+cnt], col[src:src+cnt])
			if words > 0 {
				w := int64(words)
				copy(mask[off*w:(off+cnt)*w], mask[src*w:(src+cnt)*w])
			}
		}
		off += cnt
		row[v+1] = off
	}
	ar.col = col[:off]
	if words > 0 {
		ar.mask = mask[:off*int64(words)]
	}
	return ar
}

// release returns the compact CSR's buffers to the arena.
func (ar activeRuns) release(sb *scratchBuf) {
	sb.putI64(ar.row)
	sb.putI32(ar.col)
	if ar.mask != nil {
		sb.putU64(ar.mask)
	}
}
