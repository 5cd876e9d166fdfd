package perwindow_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmpr/internal/betweenness"
	"pmpr/internal/closeness"
	"pmpr/internal/events"
	"pmpr/internal/kcore"
	"pmpr/internal/perwindow"
	"pmpr/internal/sched"
	"pmpr/internal/tcsr"
	"pmpr/internal/wcc"
)

// testLog is a random log with a gap in the middle, so some windows
// are empty.
func testLog(t *testing.T) *events.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	const n = 40
	var evs []events.Event
	for tcur := int64(0); tcur < 3000; tcur += 1 + rng.Int63n(4) {
		if tcur >= 1400 && tcur < 1700 {
			continue
		}
		evs = append(evs, events.Event{U: int32(rng.Intn(n)), V: int32(rng.Intn(n)), T: tcur})
	}
	l, err := events.NewLog(evs, n)
	if err != nil {
		t.Fatalf("NewLog: %v", err)
	}
	return l
}

// model runs one analysis with the given shared settings and returns
// a fingerprint of every window: its summary fields, then its kept
// per-vertex vector (labels, coreness or scores), all as raw bits.
type model struct {
	name string
	run  func(l *events.Log, spec events.WindowSpec, cfg perwindow.Config, pool *sched.Pool) (fp []uint64, err error)
}

func bits32(x int32) uint64 { return uint64(uint32(x)) }

// perVertex appends f(v) for every vertex of l.
func perVertex(dst []uint64, l *events.Log, f func(v int32) uint64) []uint64 {
	for v := int32(0); v < l.NumVertices(); v++ {
		dst = append(dst, f(v))
	}
	return dst
}

var models = []model{
	{"components", func(l *events.Log, spec events.WindowSpec, shared perwindow.Config, pool *sched.Pool) (fp []uint64, err error) {
		cfg := wcc.DefaultConfig()
		cfg.Config, cfg.KeepLabels = shared, true
		eng, err := wcc.NewEngine(l, spec, cfg, pool)
		if err != nil {
			return nil, err
		}
		s, err := eng.Run()
		if err != nil {
			return nil, err
		}
		for w := 0; w < s.Len(); w++ {
			r := s.Window(w)
			fp = append(fp, uint64(r.Window), bits32(r.ActiveVertices), bits32(r.Components), bits32(r.LargestSize))
			fp = perVertex(fp, l, func(v int32) uint64 { return bits32(r.Label(v)) })
		}
		return fp, nil
	}},
	{"kcore", func(l *events.Log, spec events.WindowSpec, shared perwindow.Config, pool *sched.Pool) (fp []uint64, err error) {
		cfg := kcore.DefaultConfig()
		cfg.Config, cfg.KeepCoreness = shared, true
		eng, err := kcore.NewEngine(l, spec, cfg, pool)
		if err != nil {
			return nil, err
		}
		s, err := eng.Run()
		if err != nil {
			return nil, err
		}
		for w := 0; w < s.Len(); w++ {
			r := s.Window(w)
			fp = append(fp, uint64(r.Window), bits32(r.ActiveVertices), bits32(r.MaxCore), bits32(r.MaxCoreSize))
			fp = perVertex(fp, l, func(v int32) uint64 { return bits32(r.Coreness(v)) })
		}
		return fp, nil
	}},
	{"closeness", func(l *events.Log, spec events.WindowSpec, shared perwindow.Config, pool *sched.Pool) (fp []uint64, err error) {
		cfg := closeness.DefaultConfig()
		cfg.Config, cfg.KeepScores, cfg.SampleSources, cfg.Seed = shared, true, 6, 3
		eng, err := closeness.NewEngine(l, spec, cfg, pool)
		if err != nil {
			return nil, err
		}
		s, err := eng.Run()
		if err != nil {
			return nil, err
		}
		for w := 0; w < s.Len(); w++ {
			r := s.Window(w)
			fp = append(fp, uint64(r.Window), bits32(r.ActiveVertices), bits32(r.Top), math.Float64bits(r.TopScore), bits32(r.SampledSources))
			fp = perVertex(fp, l, func(v int32) uint64 { return math.Float64bits(r.Score(v)) })
		}
		return fp, nil
	}},
	{"betweenness", func(l *events.Log, spec events.WindowSpec, shared perwindow.Config, pool *sched.Pool) (fp []uint64, err error) {
		cfg := betweenness.DefaultConfig()
		cfg.Config, cfg.KeepScores = shared, true
		eng, err := betweenness.NewEngine(l, spec, cfg, pool)
		if err != nil {
			return nil, err
		}
		s, err := eng.Run()
		if err != nil {
			return nil, err
		}
		for w := 0; w < s.Len(); w++ {
			r := s.Window(w)
			fp = append(fp, uint64(r.Window), bits32(r.ActiveVertices), bits32(r.Top), math.Float64bits(r.TopScore), bits32(r.SampledSources))
			fp = perVertex(fp, l, func(v int32) uint64 { return math.Float64bits(r.Score(v)) })
		}
		return fp, nil
	}},
}

// TestResultsIndependentOfScheduleAndDirection runs every analysis
// through the driver under each pool, grain and Directed setting and
// requires bit-identical per-window results. The analyses read the
// undirected window view, so neither the schedule nor the
// representation may change them: a directed build of the log and an
// undirected build of its symmetrization (as pmrank makes without
// -directed) hold the same view.
func TestResultsIndependentOfScheduleAndDirection(t *testing.T) {
	l := testLog(t)
	sym := l.Symmetrize()
	spec, err := events.Span(l, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(3)
	defer pool.Close()
	pools := []struct {
		name string
		p    *sched.Pool
	}{{"serial", nil}, {"pool3", pool}}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			ref, err := m.run(sym, spec, perwindow.DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pools {
				for _, directed := range []bool{false, true} {
					for _, grain := range []int{0, 1, 5} {
						cfg := perwindow.DefaultConfig()
						cfg.Directed, cfg.Grain = directed, grain
						in := sym
						if directed {
							in = l
						}
						got, err := m.run(in, spec, cfg, p.p)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, ref) {
							t.Errorf("%s directed=%v grain=%d: results differ from the serial undirected run", p.name, directed, grain)
						}
					}
				}
			}
		})
	}
}

// TestDriverValidation checks the driver's own rejections.
func TestDriverValidation(t *testing.T) {
	l := testLog(t)
	spec, err := events.Span(l, 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	count := func() perwindow.Solver[int32] {
		return func(_ int, _ *tcsr.MultiWindow, view *tcsr.WindowView) int32 { return view.NumActive }
	}
	cfg := perwindow.DefaultConfig()
	cfg.NumMultiWindows = 0
	if _, err := perwindow.New("count", l, spec, cfg, nil, count); err == nil {
		t.Fatal("NumMultiWindows 0 accepted")
	}
	if _, err := perwindow.FromTemporal("count", nil, perwindow.DefaultConfig(), nil, count); err == nil {
		t.Fatal("nil temporal accepted")
	}
	eng, err := perwindow.New("count", l, spec, perwindow.DefaultConfig(), nil, count)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != spec.Count || s.Spec != spec {
		t.Fatalf("series has %d windows of %+v, want %d of %+v", s.Len(), s.Spec, spec.Count, spec)
	}
	empty := 0
	for w := 0; w < s.Len(); w++ {
		if *s.Window(w) == 0 {
			empty++
		}
	}
	if empty == 0 || empty == s.Len() {
		t.Fatalf("%d of %d windows empty; the log should give both kinds", empty, s.Len())
	}
}
