package main

import (
	"encoding/json"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// for it to be reported: a p99 of 200 samples rests on two values and
// says nothing about the tail.
const minTail = 10

// pct is one percentile of a sample set, with the evidence behind it.
type pct struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
	OK     bool    `json:"ok"`
}

// MarshalJSON writes a non-finite value (a latency percentile that
// falls among failed requests, which count as infinitely late) as null.
func (p pct) MarshalJSON() ([]byte, error) {
	type plain pct
	if math.IsInf(p.Value, 0) || math.IsNaN(p.Value) {
		return json.Marshal(struct {
			plain
			Value *float64 `json:"value"`
		}{plain: plain(p)})
	}
	return json.Marshal(plain(p))
}

// finite returns v, or the largest float64 when v is +Inf or NaN, so a
// run whose requests mostly failed still prints its result line.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// percentile returns the nearest-rank q-quantile of sorted. It is OK
// only when at least minTail samples lie beyond it.
func percentile(sorted []float64, q float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{}
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	return pct{Value: sorted[rank-1], N: n, Beyond: beyond, OK: beyond >= minTail}
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// calmSlack is how far above the least stolen share of CPU time an
// interval's share may lie and the interval still count as calm.
const calmSlack = 0.02

// calm reports which of a run's measured intervals, given the share of
// this machine's CPU time the hypervisor stole during each, are calm:
// every one within calmSlack of the least stolen, and at least the least
// stolen half (rounded up). Stolen time stretches wall times, so on a
// shared virtual machine the figures are medians over the calm
// intervals; when nothing is stolen, every interval is calm.
func calm(steal []float64) []bool {
	keep := make([]bool, len(steal))
	if len(steal) == 0 {
		return keep
	}
	s := sortedCopy(steal)
	limit := max(s[(len(s)+1)/2-1], s[0]+calmSlack)
	for i, f := range steal {
		keep[i] = f <= limit
	}
	return keep
}

// calmValues returns the values measured over the calm intervals.
func calmValues(vals, steal []float64) []float64 {
	var out []float64
	for i, ok := range calm(steal) {
		if ok {
			out = append(out, vals[i])
		}
	}
	return out
}
