package closeness

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"pmpr/internal/events"
	"pmpr/internal/sched"
)

func ev(u, v int32, t int64) events.Event { return events.Event{U: u, V: v, T: t} }

func randomLog(t *testing.T, seed int64, n int32, m int, span int64) *events.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	evs := make([]events.Event, m)
	tcur := int64(0)
	for i := range evs {
		tcur += rng.Int63n(span/int64(m) + 1)
		evs[i] = ev(int32(rng.Intn(int(n))), int32(rng.Intn(int(n))), tcur)
	}
	l, err := events.NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}

// naiveHarmonic computes exact harmonic closeness of a window by
// Floyd-style BFS over the undirected deduplicated edge set.
func naiveHarmonic(l *events.Log, ts, te int64) map[int32]float64 {
	adj := make(map[int32]map[int32]bool)
	add := func(a, b int32) {
		if adj[a] == nil {
			adj[a] = make(map[int32]bool)
		}
		adj[a][b] = true
	}
	for _, e := range l.Slice(ts, te) {
		add(e.U, e.V)
		add(e.V, e.U)
	}
	out := make(map[int32]float64)
	for src := range adj {
		dist := map[int32]int{src: 0}
		queue := []int32{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for u := range adj[v] {
				if _, ok := dist[u]; !ok {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		var c float64
		for v, d := range dist {
			if v != src && d > 0 {
				c += 1 / float64(d)
			}
		}
		out[src] = c
	}
	return out
}

func TestExactMatchesOracle(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(800 + trial)))
		n := int32(rng.Intn(30) + 3)
		l := randomLog(t, int64(900+trial), n, rng.Intn(200)+10, 1500)
		spec, err := events.Span(l, int64(rng.Intn(400)+1), int64(rng.Intn(150)+1))
		if err != nil {
			t.Fatalf("Span: %v", err)
		}
		for _, usePool := range []bool{false, true} {
			p := pool
			if !usePool {
				p = nil
			}
			cfg := DefaultConfig()
			cfg.Directed = true
			cfg.NumMultiWindows = 2
			cfg.KeepScores = true
			eng, err := NewEngine(l, spec, cfg, p)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			s, err := eng.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for w := 0; w < spec.Count; w++ {
				want := naiveHarmonic(l, spec.Start(w), spec.End(w))
				r := s.Window(w)
				if int(r.ActiveVertices) != len(want) {
					t.Fatalf("trial %d w %d: active %d, oracle %d", trial, w, r.ActiveVertices, len(want))
				}
				if int(r.SampledSources) != len(want) {
					t.Fatalf("trial %d w %d: exact run sampled %d of %d", trial, w, r.SampledSources, len(want))
				}
				for v, c := range want {
					if got := r.Score(v); math.Abs(got-c) > 1e-12 {
						t.Fatalf("trial %d w %d vertex %d: %v, oracle %v", trial, w, v, got, c)
					}
				}
			}
		}
	}
}

func TestPathGraphValues(t *testing.T) {
	// Path 0-1-2: C(0) = 1 + 1/2 = 1.5, C(1) = 2, C(2) = 1.5.
	raw, _ := events.NewLog([]events.Event{ev(0, 1, 0), ev(1, 2, 1)}, 3)
	l := raw.Symmetrize()
	spec := events.WindowSpec{T0: 0, Delta: 10, Slide: 10, Count: 1}
	cfg := DefaultConfig()
	cfg.KeepScores = true
	eng, _ := NewEngine(l, spec, cfg, nil)
	s, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := s.Window(0)
	for v, want := range []float64{1.5, 2, 1.5} {
		if got := r.Score(int32(v)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("C(%d) = %v, want %v", v, got, want)
		}
	}
	if r.Top != 1 || math.Abs(r.TopScore-2) > 1e-12 {
		t.Fatalf("top = %d (%v), want 1 (2)", r.Top, r.TopScore)
	}
}

func TestSamplingDeterministicAndScaled(t *testing.T) {
	l := randomLog(t, 901, 40, 600, 2000)
	spec, _ := events.Span(l, 500, 250)
	mk := func(seed int64) *Series {
		cfg := DefaultConfig()
		cfg.Directed = true
		cfg.SampleSources = 8
		cfg.Seed = seed
		cfg.KeepScores = true
		eng, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return s
	}
	a, b := mk(7), mk(7)
	c := mk(8)
	differs := false
	for w := 0; w < spec.Count; w++ {
		if a.Window(w).SampledSources > 8 {
			t.Fatalf("window %d sampled %d sources", w, a.Window(w).SampledSources)
		}
		for v := int32(0); v < l.NumVertices(); v++ {
			if a.Window(w).Score(v) != b.Window(w).Score(v) {
				t.Fatalf("sampling not deterministic at window %d vertex %d", w, v)
			}
			if a.Window(w).Score(v) != c.Window(w).Score(v) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical samples (suspicious)")
	}
}

func TestSamplingApproximatesExact(t *testing.T) {
	// On a dense-ish window, half-sampling must correlate with exact:
	// the top-ranked vertex should be in the exact top fraction.
	l := randomLog(t, 902, 25, 1500, 500)
	spec := events.WindowSpec{T0: 0, Delta: 500, Slide: 600, Count: 1}
	exactCfg := DefaultConfig()
	exactCfg.Directed = true
	exactCfg.KeepScores = true
	exEng, _ := NewEngine(l, spec, exactCfg, nil)
	exact, err := exEng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	apxCfg := exactCfg
	apxCfg.SampleSources = 12
	apEng, _ := NewEngine(l, spec, apxCfg, nil)
	approx, err := apEng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Mean relative error over active vertices should be modest.
	var relErr float64
	var count int
	for v := int32(0); v < l.NumVertices(); v++ {
		e := exact.Window(0).Score(v)
		a := approx.Window(0).Score(v)
		if e > 0 {
			relErr += math.Abs(a-e) / e
			count++
		}
	}
	if count == 0 {
		t.Fatal("no active vertices")
	}
	if relErr/float64(count) > 0.5 {
		t.Fatalf("mean relative error %v too large", relErr/float64(count))
	}
}

func TestEmptyWindowCloseness(t *testing.T) {
	l, _ := events.NewLog([]events.Event{ev(0, 1, 0)}, 2)
	spec := events.WindowSpec{T0: 0, Delta: 1, Slide: 100, Count: 2}
	cfg := DefaultConfig()
	cfg.Directed = true
	cfg.KeepScores = true
	eng, _ := NewEngine(l, spec, cfg, nil)
	s, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Window(1).Top != -1 || s.Window(1).ActiveVertices != 0 {
		t.Fatalf("empty window: %+v", s.Window(1))
	}
}

func TestClosenessValidation(t *testing.T) {
	l := randomLog(t, 903, 5, 10, 50)
	spec, _ := events.Span(l, 20, 10)
	cfg := DefaultConfig()
	cfg.NumMultiWindows = 0
	if _, err := NewEngine(l, spec, cfg, nil); err == nil {
		t.Fatal("bad NumMultiWindows accepted")
	}
	cfg = DefaultConfig()
	cfg.SampleSources = -1
	if _, err := NewEngine(l, spec, cfg, nil); err == nil {
		t.Fatal("negative SampleSources accepted")
	}
	if _, err := NewEngineFromTemporal(nil, DefaultConfig(), nil); err == nil {
		t.Fatal("nil temporal accepted")
	}
	// A sample larger than any window computes exactly; on 64-bit,
	// 1<<32+1 must not wrap to a one-source sample.
	if strconv.IntSize < 64 {
		return
	}
	run := func(sample int) *Series {
		cfg := DefaultConfig()
		cfg.SampleSources = sample
		cfg.KeepScores = true
		eng, err := NewEngine(l, spec, cfg, nil)
		if err != nil {
			t.Fatalf("NewEngine(SampleSources=%d): %v", sample, err)
		}
		s, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return s
	}
	exact, huge := run(0), run(int(int64(1)<<32+1))
	for w := 0; w < exact.Len(); w++ {
		e, h := exact.Window(w), huge.Window(w)
		if h.SampledSources != h.ActiveVertices || h.Top != e.Top || h.TopScore != e.TopScore {
			t.Fatalf("window %d: SampleSources 1<<32+1 gave %+v, exact %+v", w, h, e)
		}
		for v := int32(0); v < l.NumVertices(); v++ {
			if h.Score(v) != e.Score(v) {
				t.Fatalf("window %d vertex %d: score %v, exact %v", w, v, h.Score(v), e.Score(v))
			}
		}
	}
}

func TestScoresNotKeptByDefault(t *testing.T) {
	l := randomLog(t, 904, 10, 50, 200)
	spec, _ := events.Span(l, 100, 50)
	cfg := DefaultConfig()
	cfg.Directed = true
	eng, _ := NewEngine(l, spec, cfg, nil)
	s, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Window(0).Score(0) != -1 {
		t.Fatal("scores should be absent without KeepScores")
	}
	// But the Top summary is still available.
	if s.Window(0).ActiveVertices > 0 && s.Window(0).Top < 0 {
		t.Fatal("Top missing despite active window")
	}
}
