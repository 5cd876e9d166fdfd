package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"pmpr/internal/cliutil"
	"pmpr/internal/closeness"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/kcore"
	"pmpr/internal/sched"
	"pmpr/internal/serve"
	"pmpr/internal/wcc"
)

// layerUnits are the per-layer metrics and their units, as
// BENCHMARK.json lists them. The traced run reports every one on every
// workload.
var layerUnits = []struct{ name, unit string }{
	{"events.read_s", "s"},
	{"events.symmetrize_s", "s"},
	{"tcsr.build_s", "s"},
	{"tcsr.bytes", "bytes"},
	{"tcsr.stored_events", "count"},
	{"tcsr.active_run_frac", "ratio"},
	{"core.plan_s", "s"},
	{"core.solve_s", "s"},
	{"core.publish_s", "s"},
	{"core.sweep_us", "us"},
	{"core.iterations", "count"},
	{"core.sweeps", "count"},
	{"core.warm_start_rate", "ratio"},
	{"core.unconverged", "count"},
	{"core.window_p50_ms", "ms"},
	{"core.window_p99_ms", "ms"},
	{"core.scratch_hit_rate", "ratio"},
	{"core.windows_failed", "count"},
	{"core.windows_retried", "count"},
	{"sched.tasks", "count"},
	{"sched.steals", "count"},
	{"sched.imbalance", "ratio"},
	{"sched.busy_frac", "ratio"},
	{"sched.parfor_us", "us"},
	{"sched.speedup", "ratio"},
	{"results.encode_s", "s"},
	{"results.decode_s", "s"},
	{"results.bytes", "bytes"},
	{"serve.store_build_s", "s"},
	{"serve.topk_p50_us", "us"},
	{"serve.topk_p99_us", "us"},
	{"serve.trajectory_p50_us", "us"},
	{"serve.trajectory_p99_us", "us"},
	{"serve.movers_p50_us", "us"},
	{"serve.movers_p99_us", "us"},
	{"serve.handler_hit_topk_us", "us"},
	{"serve.handler_hit_trajectory_us", "us"},
	{"serve.handler_hit_movers_us", "us"},
	{"serve.handler_miss_topk_us", "us"},
	{"serve.handler_miss_trajectory_us", "us"},
	{"serve.handler_miss_movers_us", "us"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"http.rtt_hit_p50_ms", "ms"},
	{"http.rtt_hit_p99_ms", "ms"},
	{"http.rtt_miss_p50_ms", "ms"},
	{"http.rtt_miss_p99_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"wcc.run_s", "s"},
	{"kcore.run_s", "s"},
	{"closeness.run_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
}

const (
	// directQueries is how many RankStore calls per route are timed.
	directQueries = 1000
	// handlerQueries is how many distinct queries per route go through
	// the handlers, each once cold (miss) and once cached (hit).
	handlerQueries = 300
	// tracedStep is the traced run's HTTP step at the reference rate,
	// long enough for a p99 of the cache misses alone.
	tracedStep = 10 * time.Second
	// parforCalls is how many empty ParallelFor calls are timed.
	parforCalls = 2000
)

// pipelineOut is what one in-process pass of the pmrank path leaves.
type pipelineOut struct {
	wall   float64
	eng    *core.Engine
	series *core.Series
	runS   float64
	store  *serve.RankStore
	pool   *sched.Pool
	cfg    core.Config
	rt     runtimeDelta
}

// pipeline runs the pmrank path in process: ReadLog, Symmetrize, Span,
// BuildStage, NewEngineFromTemporal, Run, results.Write, then the
// serving side's results.Read and serve.NewStore. With a tracer each
// call is a span and its time lands in m; with a nil tracer the same
// calls run untraced.
func pipeline(ctx context.Context, e *env, tr *tracer, m map[string]float64, run string) (*pipelineOut, error) {
	put := func(k string, v float64) {
		if m != nil {
			m[k] = v
		}
	}
	out := &pipelineOut{}
	ef := engineFlags()
	root := tr.begin("bench.pipeline", 0, run)
	o := tr.begin("events.ReadLog", root.id, run)
	l, err := cliutil.ReadLog(e.path("events.ev"))
	if err != nil {
		return nil, err
	}
	put("events.read_s", tr.end(o))
	o = tr.begin("events.Symmetrize", root.id, run)
	l = l.Symmetrize()
	put("events.symmetrize_s", tr.end(o))
	o = tr.begin("events.Span", root.id, run)
	spec, err := events.Span(l, int64(e.w.DeltaDays*float64(gen.Day)), e.w.Slide)
	if err != nil {
		return nil, err
	}
	tr.end(o)

	out.pool = sched.NewPool(ef.Workers)
	done := false
	defer func() {
		if !done {
			out.pool.Close()
		}
	}()
	out.pool.EnableMetrics(m != nil)
	out.cfg = core.DefaultConfig()
	ef.ApplyTo(&out.cfg)
	o = tr.begin("tcsr.Build", root.id, run)
	build, err := (core.BuildStage{}).Run(core.BuildInput{Log: l, Spec: spec, Cfg: out.cfg})
	if err != nil {
		return nil, err
	}
	put("tcsr.build_s", tr.end(o))
	o = tr.begin("core.NewEngineFromTemporal", root.id, run)
	eng, err := core.NewEngineFromTemporal(build.Temporal, out.cfg, out.pool)
	if err != nil {
		return nil, err
	}
	put("core.plan_s", tr.end(o))
	out.eng = eng

	before := readRuntime()
	o = tr.begin("core.Engine.Run", root.id, run)
	s, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	out.runS = tr.end(o)
	out.rt = readRuntime().sub(before)
	out.series = s

	path := e.path("untraced.pmrs")
	if tr != nil {
		path = e.path("traced.pmrs")
	}
	o = tr.begin("results.Write", root.id, run)
	if err := writeSeries(path, s); err != nil {
		return nil, err
	}
	put("results.encode_s", tr.end(o))
	o = tr.begin("results.Read", root.id, run)
	decoded, err := readSeries(path)
	if err != nil {
		return nil, err
	}
	put("results.decode_s", tr.end(o))
	o = tr.begin("serve.NewStore", root.id, run)
	out.store, err = serve.NewStore(decoded)
	if err != nil {
		return nil, err
	}
	put("serve.store_build_s", tr.end(o))
	out.wall = tr.end(root)
	done = true
	return out, nil
}

// runtimeDelta is the Go runtime's cost of one call.
type runtimeDelta struct {
	allocBytes, gcCycles uint64
	pauseNs              uint64
}

func readRuntime() runtimeDelta {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs}
}

// runTraced records a span around every call into the program's
// layers on the workload's input and reports the per-layer metrics.
func runTraced(ctx context.Context, e *env) (*result, *details, error) {
	in, err := prepare(e)
	if err != nil {
		return nil, nil, err
	}
	det := &details{Descriptors: in.desc}
	m := make(map[string]float64)
	tr := newTracer()
	res := &result{Metrics: map[string]metricValue{}}

	p, err := passes(ctx, e, tr, m)
	if err != nil {
		return nil, nil, err
	}
	defer p.pool.Close()

	if err := coreLayers(m, p, in); err != nil {
		return nil, nil, err
	}
	if fi, err := os.Stat(e.path("traced.pmrs")); err == nil {
		m["results.bytes"] = float64(fi.Size())
		det.Descriptors.PMRSBytes = fi.Size()
	}
	res.Attempted += p.series.Len()
	res.Failed += len(p.series.Quarantined())

	// The output check on the traced series.
	decoded, err := readSeries(e.path("traced.pmrs"))
	if err != nil {
		return nil, nil, err
	}
	bad, maxL1, err := checkRanks(decoded, in.log, in.spec, sampleWindows(e.seed, in.spec.Count))
	if err != nil {
		return nil, nil, err
	}
	if bad > 0 {
		det.Checks = append(det.Checks, fmt.Sprintf("%d sampled windows differ from the reference solve (max L1 %.3g)", bad, maxL1))
		res.Failed += bad
	}

	parforLayer(m, p, tr)
	wccS, kcoreS, err := modelLayers(m, p, tr)
	if err != nil {
		return nil, nil, err
	}
	wantW, wantK, err := serialSummaries(in.log, in.spec)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted += 2 * len(wantW)
	for name, bad := range map[string]int{"components": checkSummaries(wccS, wantW), "kcore": checkSummaries(kcoreS, wantK)} {
		if bad > 0 {
			det.Checks = append(det.Checks, fmt.Sprintf("%s: %d windows differ from the serial run", name, bad))
			res.Failed += bad
		}
	}
	mix := newQueryMix(e.seed, p.store.NumWindows(), int(p.store.NumVertices()))
	storeLayers(m, p.store, mix, tr)
	if err := handlerLayers(m, p.store, tr); err != nil {
		return nil, nil, err
	}

	sv, err := servePhase(ctx, e, e.path("traced.pmrs"), 1, []stepPlan{{Rate: refRate, Dur: tracedStep}}, e.w.StepReloads, tr)
	if err != nil {
		return nil, nil, err
	}
	det.Serve = sv
	ref := sv.Steps[0]
	ok := float64(max(1, ref.Requests-ref.Failed))
	m["serve.cache_hit_frac"] = float64(ref.Hits) / ok
	m["serve.coalesced_frac"] = float64(ref.Coalesced) / ok
	m["serve.shed"], m["serve.timeouts"] = sv.Shed, sv.Timeouts
	hit, miss := sortedCopy(ref.RTTHitMs), sortedCopy(ref.RTTMissMs)
	m["http.rtt_hit_p50_ms"] = percentile(hit, 0.5).Value
	m["http.rtt_hit_p99_ms"] = tailValue(det, "http.rtt_hit_p99_ms", percentile(hit, 0.99))
	m["http.rtt_miss_p50_ms"] = percentile(miss, 0.5).Value
	m["http.rtt_miss_p99_ms"] = tailValue(det, "http.rtt_miss_p99_ms", percentile(miss, 0.99))
	m["loadgen.late_ms"] = tailValue(det, "loadgen.late_ms", ref.LateP99)
	res.Attempted += ref.Requests + len(sv.FirstAnswerS)
	res.Failed += ref.Failed + sv.ColdWrong
	if ref.Wrong+sv.ColdWrong > 0 {
		det.Checks = append(det.Checks, fmt.Sprintf("%d sampled HTTP answers differ from the direct RankStore answer", ref.Wrong+sv.ColdWrong))
	}

	if err := tr.writeSpans(e.path("spans.json")); err != nil {
		return nil, nil, err
	}
	for _, l := range layerUnits {
		v, ok := m[l.name]
		if !ok {
			return nil, nil, fmt.Errorf("traced run did not measure %s", l.name)
		}
		res.Metrics[l.name] = metricValue{Value: v, Unit: l.unit}
	}
	det.FailFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	return res, det, nil
}

// passRounds is how many times each of the untraced, traced and serial
// passes runs.
const passRounds = 3

// passes runs the pmrank path untraced (U) and traced (T), and the
// plain serial solve (S), passRounds times each, in rounds whose order
// rotates (U T S, T S U, S U T): each kind runs once in each position,
// so a cold first pass or a warm late one favours none. trace.overhead_s is the
// median traced wall minus the median untraced wall; sched.speedup is
// the median serial time in Run over the median untraced one, both with
// the pool's metrics off. The other per-layer figures are the last
// traced pass's, which it returns.
func passes(ctx context.Context, e *env, tr *tracer, m map[string]float64) (*pipelineOut, error) {
	var p *pipelineOut
	var ref *core.Engine // the problem the serial passes solve
	var uWall, tWall, uRun, sRun []float64
	for round := 0; round < passRounds; round++ {
		for k := 0; k < 3; k++ {
			var err error
			switch (round + k) % 3 {
			case 0:
				var u *pipelineOut
				if u, err = pipeline(ctx, e, nil, nil, fmt.Sprintf("untraced-%d", round)); err != nil {
					break
				}
				u.pool.Close()
				uWall, uRun = append(uWall, u.wall), append(uRun, u.runS)
				if ref == nil {
					ref = u.eng
				}
			case 1:
				if p != nil {
					p.pool.Close()
				}
				if p, err = pipeline(ctx, e, tr, m, fmt.Sprintf("traced-%d", round)); err != nil {
					break
				}
				tWall = append(tWall, p.wall)
			case 2:
				var secs float64
				secs, err = serialRun(ctx, ref, tr, fmt.Sprintf("serial-%d", round))
				sRun = append(sRun, secs)
			}
			if err != nil {
				if p != nil {
					p.pool.Close()
				}
				return nil, err
			}
		}
	}
	m["trace.overhead_s"] = median(tWall) - median(uWall)
	m["sched.speedup"] = median(sRun) / median(uRun)
	return p, nil
}

// serialRun solves ref's problem on a one-worker pool, the plain
// single-threaded baseline, and returns the seconds spent in Run.
func serialRun(ctx context.Context, ref *core.Engine, tr *tracer, run string) (float64, error) {
	serial := sched.NewPool(1)
	defer serial.Close()
	eng, err := core.NewEngineFromTemporal(ref.Temporal(), ref.Config(), serial)
	if err != nil {
		return 0, err
	}
	o := tr.begin("core.Engine.Run", 0, run)
	if _, err := eng.Run(ctx); err != nil {
		return 0, err
	}
	return tr.end(o), nil
}

// tailValue returns a tail percentile, noting when fewer than minTail
// samples lie beyond it.
func tailValue(det *details, name string, p pct) float64 {
	if !p.OK {
		det.Notes = append(det.Notes, fmt.Sprintf("%s rests on %d samples beyond it (n=%d)", name, p.Beyond, p.N))
	}
	return p.Value
}

// coreLayers reads the core layer's metrics from the run report.
func coreLayers(m map[string]float64, p *pipelineOut, in *input) error {
	r := p.series.Report
	if r == nil || r.Sched == nil || r.Scratch == nil {
		return fmt.Errorf("run report lacks scheduler or scratch counters")
	}
	tg := p.eng.Temporal()
	m["tcsr.bytes"] = float64(tg.MemoryBytes())
	m["tcsr.stored_events"] = float64(tg.TotalStoredEvents())
	m["tcsr.active_run_frac"] = in.desc.ActiveRunFrac
	solve, _ := r.PhaseSeconds("solve")
	publish, _ := r.PhaseSeconds("publish")
	m["core.solve_s"], m["core.publish_s"] = solve, publish
	m["core.sweep_us"] = solve / float64(r.TotalSweeps) * 1e6
	m["core.iterations"] = float64(r.TotalIterations)
	m["core.sweeps"] = float64(r.TotalSweeps)
	m["core.warm_start_rate"] = r.WarmStart.HitRate
	m["core.unconverged"] = float64(r.Residuals.Unconverged)
	walls := make([]float64, len(r.WindowWallSeconds))
	for i, w := range r.WindowWallSeconds {
		walls[i] = w * 1e3
	}
	walls = sortedCopy(walls)
	m["core.window_p50_ms"] = percentile(walls, 0.5).Value
	m["core.window_p99_ms"] = percentile(walls, 0.99).Value
	m["core.scratch_hit_rate"] = r.Scratch.HitRate
	m["core.windows_failed"] = float64(len(r.Fault.Quarantined))
	m["core.windows_retried"] = float64(r.Fault.Retried)
	m["sched.tasks"] = float64(r.Sched.TotalTasks)
	m["sched.steals"] = float64(r.Sched.TotalSteals)
	m["sched.imbalance"] = r.Sched.LoadImbalance
	var busy int64
	for _, w := range r.Sched.Workers {
		busy += w.BusyNanos
	}
	m["sched.busy_frac"] = float64(busy) / 1e9 / (p.runS * float64(len(r.Sched.Workers)))
	m["runtime.alloc_mb"] = float64(p.rt.allocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = float64(p.rt.gcCycles)
	m["runtime.gc_pause_ms"] = float64(p.rt.pauseNs) / 1e6
	return nil
}

// parforLayer times an empty fork-join on the traced pass's pool.
func parforLayer(m map[string]float64, p *pipelineOut, tr *tracer) {
	p.pool.EnableMetrics(false)
	n := 4 * p.pool.NumWorkers()
	o := tr.begin("sched.ParallelFor", 0, "parfor")
	for i := 0; i < parforCalls; i++ {
		p.pool.ParallelFor(n, 1, sched.Auto, func(*sched.Worker, int, int) {})
	}
	m["sched.parfor_us"] = tr.end(o) / parforCalls * 1e6
}

// modelLayers times each per-window model's Run on the same
// representation, configured as pmrank -model configures it, and
// returns the components and k-core summaries for the serial check.
func modelLayers(m map[string]float64, p *pipelineOut, tr *tracer) (wccS, kcoreS [][3]int32, err error) {
	ef := engineFlags()
	tg := p.eng.Temporal()
	we, err := wcc.NewEngineFromTemporal(tg, wccConfig(ef), p.pool)
	if err != nil {
		return nil, nil, err
	}
	o := tr.begin("wcc.Engine.Run", 0, "models")
	ws, err := we.Run()
	if err != nil {
		return nil, nil, err
	}
	m["wcc.run_s"] = tr.end(o)
	ke, err := kcore.NewEngineFromTemporal(tg, kcoreConfig(ef), p.pool)
	if err != nil {
		return nil, nil, err
	}
	o = tr.begin("kcore.Engine.Run", 0, "models")
	ks, err := ke.Run()
	if err != nil {
		return nil, nil, err
	}
	m["kcore.run_s"] = tr.end(o)
	ce, err := closeness.NewEngineFromTemporal(tg, closenessConfig(ef), p.pool)
	if err != nil {
		return nil, nil, err
	}
	o = tr.begin("closeness.Engine.Run", 0, "models")
	if _, err := ce.Run(); err != nil {
		return nil, nil, err
	}
	m["closeness.run_s"] = tr.end(o)
	return wccSummary(ws), kcoreSummary(ks), nil
}

// storeLayers times direct RankStore calls over the query mix.
func storeLayers(m map[string]float64, st *serve.RankStore, mix *queryMix, tr *tracer) {
	var us [numRoutes][]float64
	for len(us[routeTopK]) < directQueries || len(us[routeTrajectory]) < directQueries || len(us[routeMovers]) < directQueries {
		q := mix.next()
		if len(us[q.Route]) >= directQueries {
			continue
		}
		o := tr.begin("serve.RankStore."+q.Route.String(), 0, "store")
		switch q.Route {
		case routeTopK:
			st.TopK(q.A, queryK)
		case routeTrajectory:
			st.Trajectory(int32(q.A))
		default:
			st.Movers(q.A, q.B, queryK)
		}
		us[q.Route] = append(us[q.Route], tr.end(o)*1e6)
	}
	for r := route(0); r < numRoutes; r++ {
		s := sortedCopy(us[r])
		m["serve."+r.String()+"_p50_us"] = percentile(s, 0.5).Value
		m["serve."+r.String()+"_p99_us"] = percentile(s, 0.99).Value
	}
}

// handlerLayers times the Service handlers without a network: each of
// handlerQueries distinct queries per route once cold and once cached.
func handlerLayers(m map[string]float64, st *serve.RankStore, tr *tracer) error {
	svc := serve.NewService(0)
	svc.Guard = serve.NewGuard(serve.GuardConfig{Timeout: 5 * time.Second, MaxInFlight: 256, QueueWait: 100 * time.Millisecond})
	svc.Publish(st)
	mux := http.NewServeMux()
	svc.Mount(mux)
	n := min(handlerQueries, st.NumWindows()-1, int(st.NumVertices()))
	for r := route(0); r < numRoutes; r++ {
		var hit, miss []float64
		for i := 0; i < n; i++ {
			q := query{Route: r, A: i, B: i + 1}
			for pass := 0; pass < 2; pass++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, q.path(), nil)
				o := tr.begin("serve.Service."+r.String(), 0, "handlers")
				mux.ServeHTTP(rec, req)
				us := tr.end(o) * 1e6
				if rec.Code != http.StatusOK {
					return fmt.Errorf("handler %s: status %d", q.path(), rec.Code)
				}
				if rec.Header().Get("X-Cache") == "hit" {
					hit = append(hit, us)
				} else {
					miss = append(miss, us)
				}
			}
		}
		m["serve.handler_hit_"+r.String()+"_us"] = median(hit)
		m["serve.handler_miss_"+r.String()+"_us"] = median(miss)
	}
	return nil
}
