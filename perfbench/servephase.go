package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pmpr/internal/serve"
)

// serveResult is the serve phase's outcome.
type serveResult struct {
	// ReadyS and FirstAnswerS are, per cold start, the seconds from
	// spawning pmserve to /readyz answering 200 and to the first
	// correct /v1/topk answer.
	ReadyS       []float64 `json:"ready_s"`
	FirstAnswerS []float64 `json:"first_answer_s"`
	// ColdSteal is the stolen share of CPU time during each cold start.
	ColdSteal []float64   `json:"cold_steal"`
	Steps     []stepStats `json:"steps"`
	// QueryP50 and QueryMissP50 are the reference step's median
	// latencies, of all answers and of those that were not cache hits,
	// over its calm chunks (calmSamples).
	QueryP50     pct `json:"query_p50_ms"`
	QueryMissP50 pct `json:"query_miss_p50_ms"`
	// RepublishS are the idle republishes after the steps;
	// StepRepublishS those at fixed offsets inside the steps.
	RepublishS     []float64 `json:"republish_s"`
	StepRepublishS []float64 `json:"step_republish_s"`
	// RepublishSteal is the stolen share of CPU time during each idle
	// republish.
	RepublishSteal []float64 `json:"republish_steal"`
	// RefCPUS is pmserve's CPU seconds over the reference step and
	// RefRSSMB its peak resident memory up to the step's end, republish
	// included. Both are taken at the reference step, which every run
	// reaches, rather than at the end of a ladder whose length varies.
	RefCPUS  float64 `json:"ref_cpu_s"`
	RefRSSMB float64 `json:"ref_rss_mb"`
	CPUS     float64 `json:"cpu_s"`
	RSSMB    float64 `json:"rss_mb"`
	Windows  int     `json:"windows"`
	Checked  int     `json:"answers_checked"`
	Wrong    int     `json:"answers_wrong"`
	// ColdWrong counts wrong first answers of cold starts (also in Wrong).
	ColdWrong int     `json:"cold_wrong"`
	Shed      float64 `json:"shed"`
	Timeouts  float64 `json:"timeouts"`
}

// republish_s is the median of the calm ones of back-to-back republishes
// on the idle daemon, repeated for republishFor and at least
// minRepublishes times.
const (
	republishFor   = 3 * time.Second
	minRepublishes = 5
)

// stepPlan is one serve step as run: a request rate and a duration.
type stepPlan struct {
	Rate float64
	Dur  time.Duration
}

// coldStart spawns pmserve on pmrs and times it to ready and to the
// first answer, which must equal the direct store answer.
func coldStart(ctx context.Context, bin, pmrs string, st *serve.RankStore, res *serveResult) (*daemon, error) {
	d, ready, err := startDaemon(ctx, bin, pmrs)
	if err != nil {
		return nil, err
	}
	q := query{Route: routeTopK, A: 0}
	code, body, err := d.fetch(ctx, q.path())
	first := time.Since(d.started).Seconds()
	if err != nil || code != 200 {
		d.kill()
		return nil, fmt.Errorf("first answer: status %d: %v", code, err)
	}
	res.ReadyS = append(res.ReadyS, ready)
	res.FirstAnswerS = append(res.FirstAnswerS, first)
	s := []sample{{Status: code, Body: body}}
	if _, err := checkAnswers(st, []query{q}, s); err != nil {
		d.kill()
		return nil, err
	}
	if s[0].Wrong {
		res.ColdWrong++
	}
	res.Checked++
	return d, nil
}

// server is one pmserve -load daemon under the generator's load:
// cold-started by startServer, driven in chunks of calmChunk, and timed
// at republishing and drained by finish.
type server struct {
	st  *serve.RankStore // the direct answers sampled HTTP answers must equal
	d   *daemon
	lc  *loadClient
	mix *queryMix
	tr  *tracer
	res *serveResult
}

// startServer cold-starts pmserve on pmrs coldStarts times; the last
// instance stays up.
func startServer(ctx context.Context, e *env, pmrs string, coldStarts int, tr *tracer) (*server, error) {
	series, err := readSeries(pmrs)
	if err != nil {
		return nil, err
	}
	st, err := serve.NewStore(series)
	if err != nil {
		return nil, err
	}
	s := &server{st: st, tr: tr, res: &serveResult{Windows: st.NumWindows()}}
	bin := filepath.Join(e.binDir, "pmserve")
	for i := 0; i < max(1, coldStarts); i++ {
		if s.d != nil {
			if _, _, err := s.d.stop(); err != nil {
				return nil, err
			}
		}
		steal, err := stealShare(func() (err error) {
			s.d, err = coldStart(ctx, bin, pmrs, st, s.res)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.res.ColdSteal = append(s.res.ColdSteal, steal)
	}
	s.mix = newQueryMix(e.seed, st.NumWindows(), int(st.NumVertices()))
	s.lc = newLoadClient(s.d.base, runtime.NumCPU(), 10*time.Second)
	return s, nil
}

// stepRun is a step in progress: its chunks so far, laid end to end.
type stepRun struct {
	rate    float64
	qs      []query
	samples []sample
	// steal is the share of CPU time the hypervisor stole during each
	// chunk.
	steal []float64
}

// chunk sends one calmChunk of the mix's requests at sr's rate, open
// loop, and appends them to sr, their times moved behind the step's
// earlier chunks. With reload set, pmserve republishes by SIGHUP halfway
// through the chunk.
func (s *server) chunk(ctx context.Context, sr *stepRun, reload bool) error {
	qs := s.mix.batch(int(sr.rate * calmChunk.Seconds()))
	var hooks []hook
	var reloadErr error
	if reload {
		hooks = []hook{{At: calmChunk / 2, Fn: func() {
			var secs float64
			secs, reloadErr = s.d.republish(ctx)
			s.res.StepRepublishS = append(s.res.StepRepublishS, secs)
		}}}
	}
	var samples []sample
	steal, err := stealShare(func() error {
		o := s.tr.begin("loadgen.chunk", 0, fmt.Sprintf("step-%g", sr.rate))
		var t0 time.Time
		samples, t0 = runStep(ctx, s.lc, qs, sr.rate, keepEvery, hooks)
		s.tr.end(o)
		s.tr.requests(o, t0, qs, samples)
		return reloadErr // runStep has waited for the hook
	})
	if err != nil {
		return err
	}
	at := time.Duration(len(sr.steal)) * calmChunk
	for i := range samples {
		x := &samples[i]
		x.Due, x.Dispatched, x.Sent, x.Done = x.Due+at, x.Dispatched+at, x.Sent+at, x.Done+at
	}
	sr.qs = append(sr.qs, qs...)
	sr.samples = append(sr.samples, samples...)
	sr.steal = append(sr.steal, steal)
	return nil
}

// endStep checks the step's sampled answers and adds its accounting to
// the result. The first step is the reference step: its median
// latencies over the calm chunks are the query figures.
func (s *server) endStep(sr *stepRun) (stepStats, error) {
	n, err := checkAnswers(s.st, sr.qs, sr.samples)
	if err != nil {
		return stepStats{}, err
	}
	s.res.Checked += n
	if len(s.res.Steps) == 0 {
		calm := summarize(sr.rate, calmSamples(sr.samples, sr.steal), serveSLO)
		s.res.QueryP50, s.res.QueryMissP50 = calm.LatencyP50, calm.MissP50
	}
	st := summarize(sr.rate, sr.samples, serveSLO)
	s.res.Steps = append(s.res.Steps, st)
	return st, nil
}

// ladder drives the steps in turn, each its chunks back to back (with a
// republish 80% of the way through when reload is set), and stops after
// the first step that misses the SLO (see runLadder). pmserve's CPU and
// memory are read over the first, the reference step.
func (s *server) ladder(ctx context.Context, steps []stepPlan, reload bool) error {
	var err error
	rates := make([]float64, len(steps))
	for i, sp := range steps {
		rates[i] = sp.Rate
	}
	runLadder(rates, serveSLO, func(rate float64) stepStats {
		if err != nil {
			return stepStats{} // meets no SLO: the ladder stops
		}
		var cpu0 float64
		pid := s.d.cmd.Process.Pid
		if cpu0, err = procCPU(pid); err != nil {
			return stepStats{}
		}
		sr := &stepRun{rate: rate}
		n := int(max(minStep, steps[len(s.res.Steps)].Dur) / calmChunk)
		for k := 0; k < n && err == nil; k++ {
			err = s.chunk(ctx, sr, reload && k == n*4/5)
		}
		if err != nil {
			return stepStats{}
		}
		if len(s.res.Steps) == 0 {
			var cpu1 float64
			if cpu1, err = procCPU(pid); err != nil {
				return stepStats{}
			}
			s.res.RefCPUS = cpu1 - cpu0
			if s.res.RefRSSMB, err = procPeakRSS(pid); err != nil {
				return stepStats{}
			}
		}
		var st stepStats
		st, err = s.endStep(sr)
		return st
	})
	return err
}

// finish times republishes on the idle daemon, reads its shed and
// timeout counters and drains it.
func (s *server) finish(ctx context.Context) (*serveResult, error) {
	res := s.res
	res.Wrong = res.ColdWrong
	for _, st := range res.Steps {
		res.Wrong += st.Wrong
	}
	// republish_s is timed on the idle daemon, back to back: the
	// republishes inside the steps load the queries, and their times,
	// kept in StepRepublishS, depend on that load.
	end := time.Now().Add(republishFor)
	for len(res.RepublishS) < minRepublishes || time.Now().Before(end) {
		var secs float64
		steal, err := stealShare(func() (err error) {
			secs, err = s.d.republish(ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.RepublishS = append(res.RepublishS, secs)
		res.RepublishSteal = append(res.RepublishSteal, steal)
	}
	c, err := s.d.counters(ctx, "pmpr_serve_shed_total", "pmpr_serve_timeout_total")
	if err != nil {
		return nil, err
	}
	res.Shed, res.Timeouts = c["pmpr_serve_shed_total"], c["pmpr_serve_timeout_total"]
	s.lc.close()
	if res.CPUS, res.RSSMB, err = s.d.stop(); err != nil {
		return nil, err
	}
	s.d = nil
	return res, nil
}

// kill ends a daemon that finish did not drain, and waits for it.
func (s *server) kill() {
	if s.d != nil {
		s.lc.close()
		s.d.kill()
		s.d = nil
	}
}

// servePhase cold-starts pmserve on pmrs coldStarts times, drives the
// ladder of steps, times republishes on the idle daemon, checks sampled
// answers against a direct RankStore and drains the daemon.
func servePhase(ctx context.Context, e *env, pmrs string, coldStarts int, steps []stepPlan, reload bool, tr *tracer) (*serveResult, error) {
	s, err := startServer(ctx, e, pmrs, coldStarts, tr)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	if err := s.ladder(ctx, steps, reload); err != nil {
		return nil, err
	}
	return s.finish(ctx)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on Linux).
const clockTicks = 100

// procPeakRSS reads a running process's peak resident memory (VmHWM)
// in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %v", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// hostSteal reads the jiffies the hypervisor has stolen from this
// machine's CPUs and the total, from the first line of /proc/stat.
func hostSteal() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected format")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %v", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealShare runs f and returns the share of this machine's CPU time
// the hypervisor stole meanwhile.
func stealShare(f func() error) (float64, error) {
	s0, t0, err := hostSteal()
	if err != nil {
		return 0, err
	}
	if err := f(); err != nil {
		return 0, err
	}
	s1, t1, err := hostSteal()
	if err != nil {
		return 0, err
	}
	return (s1 - s0) / max(1, t1-t0), nil
}

// procCPU reads a running process's user+sys CPU seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	stt, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return (ut + stt) / clockTicks, nil
}
