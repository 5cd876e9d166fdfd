package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"

	"pmpr/internal/csr"
	"pmpr/internal/events"
	"pmpr/internal/pagerank"
	"pmpr/internal/results"
	"pmpr/internal/serve"
)

// rankTolL1 is the L1 distance a window of a .pmrs may lie from the
// reference solve. Both sides stop at an L1 step of 1e-8 or at 100
// iterations; the windows that stop at the cap do so with residuals up
// to ~4e-8, which puts their error within residual/alpha ~ 3e-7 of the
// fixed point. 1e-6 covers both sides with margin and still catches a
// wrong rank vector, whose distance is of order 1e-2 or more.
const rankTolL1 = 1e-6

// rankSamples is how many windows of each .pmrs are re-solved.
const rankSamples = 8

// readSeries decodes a .pmrs through results.Read, which validates
// every window.
func readSeries(path string) (*results.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := results.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// sampleWindows draws rankSamples distinct window indices from seed.
func sampleWindows(seed int64, windows int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	p := rng.Perm(windows)
	return p[:min(rankSamples, windows)]
}

// checkRanks compares the sampled windows of s against pagerank.Run on
// csr.FromLogWindow, the offline model's path, which shares no kernel
// code with internal/core. It returns the number of windows outside
// rankTolL1 and the largest L1 distance seen.
func checkRanks(s *results.Series, l *events.Log, spec events.WindowSpec, windows []int) (bad int, maxL1 float64, err error) {
	if s.Spec != spec || s.NumVertices != l.NumVertices() || len(s.Windows) != spec.Count {
		return 0, 0, fmt.Errorf("series spec %v/%d vertices/%d windows, want %v/%d/%d",
			s.Spec, s.NumVertices, len(s.Windows), spec, l.NumVertices(), spec.Count)
	}
	for _, w := range windows {
		g, err := csr.FromLogWindow(l, spec.Start(w), spec.End(w))
		if err != nil {
			return 0, 0, err
		}
		ref, err := pagerank.Run(g, nil, pagerank.Defaults())
		if err != nil {
			return 0, 0, err
		}
		got := s.Windows[w].Dense(s.NumVertices)
		d := 0.0
		for v := range got {
			d += math.Abs(got[v] - ref.Ranks[v])
		}
		if d > maxL1 {
			maxL1 = d
		}
		if !(d <= rankTolL1) {
			bad++
		}
	}
	return bad, maxL1, nil
}

// checkSummaries counts the windows where a pool run's per-window
// model statistics differ from the serial run's.
func checkSummaries(got, want [][3]int32) int {
	bad := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// The response documents of the /v1 query endpoints.
type (
	topkDoc struct {
		Window int            `json:"window"`
		Start  int64          `json:"start"`
		End    int64          `json:"end"`
		K      int            `json:"k"`
		Ranks  []serve.Ranked `json:"ranks"`
	}
	trajectoryDoc struct {
		Vertex  int32     `json:"vertex"`
		Windows int       `json:"windows"`
		T0      int64     `json:"t0"`
		Delta   int64     `json:"delta"`
		Slide   int64     `json:"slide"`
		Ranks   []float64 `json:"ranks"`
	}
	moversDoc struct {
		From   int           `json:"from"`
		To     int           `json:"to"`
		K      int           `json:"k"`
		Movers []serve.Mover `json:"movers"`
	}
)

// expectedAnswer is what the daemon must answer to q: the direct
// RankStore call, in the endpoint's response document.
func expectedAnswer(st *serve.RankStore, q query) (any, error) {
	spec := st.Spec()
	switch q.Route {
	case routeTopK:
		r, err := st.TopK(q.A, queryK)
		return &topkDoc{Window: q.A, Start: spec.Start(q.A), End: spec.End(q.A), K: queryK, Ranks: r}, err
	case routeTrajectory:
		r, err := st.Trajectory(int32(q.A))
		return &trajectoryDoc{Vertex: int32(q.A), Windows: spec.Count, T0: spec.T0, Delta: spec.Delta, Slide: spec.Slide, Ranks: r}, err
	default:
		r, err := st.Movers(q.A, q.B, queryK)
		return &moversDoc{From: q.A, To: q.B, K: queryK, Movers: r}, err
	}
}

// checkAnswers compares every kept response body with the direct store
// answer, marks the wrong ones and returns how many were compared.
func checkAnswers(st *serve.RankStore, qs []query, samples []sample) (checked int, err error) {
	for i := range samples {
		s := &samples[i]
		if s.Body == nil || s.Status != 200 {
			continue
		}
		want, err := expectedAnswer(st, qs[i])
		if err != nil {
			return checked, err
		}
		got := reflect.New(reflect.TypeOf(want).Elem()).Interface()
		if err := json.Unmarshal(s.Body, got); err != nil || !reflect.DeepEqual(got, want) {
			s.Wrong = true
		}
		checked++
	}
	return checked, nil
}
