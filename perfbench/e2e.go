package main

import (
	"context"
	"os"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome, printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// e2eUnits are the end-to-end metrics and their units, as
// BENCHMARK.json lists them.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"pipeline_s", "s"},
	{"windows_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_miss_p50_ms", "ms"},
	{"republish_s", "s"},
}

// details is everything one invocation measured, written next to its
// inputs as result.json.
type details struct {
	Descriptors descriptors  `json:"descriptors"`
	Reps        []rep        `json:"reps,omitempty"`
	Serve       *serveResult `json:"serve"`
	// QueryP99Ms is the p99 latency at the reference rate and
	// MaxQPSAtSLO the achieved rate of the highest ladder step that met
	// the SLO (0 when none did). Both are measured on every run but are
	// too unsteady on a small shared host to gate on.
	QueryP99Ms  pct      `json:"query_p99_ms"`
	MaxQPSAtSLO float64  `json:"max_qps_at_slo"`
	Checks      []string `json:"check_failures"`
	Notes       []string `json:"notes,omitempty"`
	FailFrac    float64  `json:"fail_frac"`
}

// runE2E measures the workload's end-to-end metrics with tracing off.
func runE2E(ctx context.Context, e *env) (*result, *details, error) {
	in, err := prepare(e)
	if err != nil {
		return nil, nil, err
	}
	c, err := newChecker(e, in)
	if err != nil {
		return nil, nil, err
	}
	det := &details{Descriptors: in.desc}
	res := &result{Metrics: map[string]metricValue{}}
	// The served series is solved here, untimed, and checked like every
	// other .pmrs.
	pmrs := e.path("served.pmrs")
	cr, err := spawnChild(ctx, e, "postmortem", pmrs)
	if err != nil {
		return nil, nil, err
	}
	failed, _, err := c.checkOutput(cr, pmrs)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted += cr.Windows
	res.Failed += failed
	if fi, err := os.Stat(pmrs); err == nil {
		det.Descriptors.PMRSBytes = fi.Size()
	}

	srv, err := startServer(ctx, e, pmrs, e.w.ColdStarts, nil)
	if err != nil {
		return nil, nil, err
	}
	defer srv.kill()
	var plan []stepPlan
	for _, s := range e.w.Steps {
		plan = append(plan, stepPlan{Rate: s.Rate, Dur: time.Duration(s.Share * e.seconds * float64(time.Second))})
	}
	if e.w.Produce == "" {
		err = srv.ladder(ctx, plan, e.w.StepReloads)
	} else {
		// The reference step's chunks are spread over the produce phase,
		// between its repetitions, while pmserve idles during them: the
		// calm chunks can then come from any part of the run.
		ref := &stepRun{rate: plan[0].Rate}
		chunks := int(max(minStep, plan[0].Dur) / calmChunk)
		budget := time.Duration(e.w.ProduceShare*e.seconds*float64(time.Second)) + plan[0].Dur
		det.Reps, err = producePhase(ctx, e, c, budget, func(done float64) error {
			for len(ref.steal) < min(chunks, int(done*float64(chunks))) {
				if err := srv.chunk(ctx, ref, false); err != nil {
					return err
				}
			}
			return nil
		})
		for err == nil && len(ref.steal) < chunks {
			err = srv.chunk(ctx, ref, false)
		}
		if err == nil {
			_, err = srv.endStep(ref)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	sv, err := srv.finish(ctx)
	if err != nil {
		return nil, nil, err
	}
	det.Serve = sv
	det.QueryP99Ms = sv.Steps[0].LatencyP99
	if best, ok := maxAtSLO(sv.Steps, serveSLO); ok {
		det.MaxQPSAtSLO = best.Achieved
	}

	var setups, pipes, wps, cpus, rss []float64
	republish := calmValues(sv.RepublishS, sv.RepublishSteal)
	for _, r := range det.Reps {
		res.Attempted += r.Windows
		res.Failed += r.Failed
	}
	for _, r := range calmest(det.Reps) {
		setups = append(setups, r.SetupS...)
		pipes = append(pipes, r.PipelineS)
		wps = append(wps, r.WPS)
		cpus = append(cpus, r.CPUS)
		rss = append(rss, r.RSSMB)
	}
	if e.w.Produce == "" {
		// A serving workload: the program is pmserve. Its set-up is a
		// cold start to ready, its pipeline a cold start to the first
		// answer, its throughput the windows a republish makes
		// available per second, its CPU what it spent serving the
		// reference step.
		setups, pipes = calmValues(sv.ReadyS, sv.ColdSteal), calmValues(sv.FirstAnswerS, sv.ColdSteal)
		cpus, rss = []float64{sv.RefCPUS}, []float64{sv.RefRSSMB}
		wps = nil
		for _, s := range republish {
			wps = append(wps, float64(sv.Windows)/s)
		}
	}
	// Above the reference rate only wrong answers count as failures: a
	// refusal there is the overload the ladder looks for.
	ref := sv.Steps[0]
	res.Attempted += len(sv.FirstAnswerS)
	res.Failed += ref.Failed + sv.ColdWrong
	for _, st := range sv.Steps {
		res.Attempted += st.Requests
	}
	for _, st := range sv.Steps[1:] {
		res.Failed += st.Wrong
	}
	if sv.Wrong > 0 {
		c.fail("%d of %d sampled HTTP answers differ from the direct RankStore answer", sv.Wrong, sv.Checked)
	}
	vals := map[string]float64{
		"setup_s":           median(setups),
		"pipeline_s":        median(pipes),
		"windows_per_s":     median(wps),
		"cpu_s":             median(cpus),
		"peak_rss_mb":       median(rss),
		"query_p50_ms":      sv.QueryP50.Value,
		"query_miss_p50_ms": sv.QueryMissP50.Value,
		"republish_s":       median(republish),
	}
	for _, m := range e2eUnits {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	det.Checks = c.notes
	det.FailFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && c.mismatch == 0
	return res, det, nil
}
