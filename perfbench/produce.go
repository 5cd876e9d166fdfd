package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// modelNames are the per-window models of the models workload, as
// pmrank -model names them.
var modelNames = []string{"components", "kcore", "closeness"}

// childRun is one child process: its own report plus what the parent
// measured of it.
type childRun struct {
	childReport
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// spawnChild runs one child pipeline in a fresh process.
func spawnChild(ctx context.Context, e *env, model, out string) (childRun, error) {
	args := []string{"child", "-model", model, "-in", e.path("events.ev"),
		"-delta-days", strconv.FormatFloat(e.w.DeltaDays, 'g', -1, 64), "-slide", strconv.FormatInt(e.w.Slide, 10)}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.CommandContext(ctx, filepath.Join(e.binDir, "perfbench"), args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("child %s: %w", model, err)
	}
	r := childRun{WallS: time.Since(t0).Seconds()}
	r.CPUS = cpuTime(cmd.ProcessState)
	if err := json.Unmarshal(stdout.Bytes(), &r.childReport); err != nil {
		return r, fmt.Errorf("child %s report: %w", model, err)
	}
	return r, nil
}

// rep is one repetition of the produce phase.
type rep struct {
	Children  []childRun `json:"children"`
	SetupS    []float64  `json:"-"`
	PipelineS float64    `json:"pipeline_s"`
	WPS       float64    `json:"windows_per_s"`
	CPUS      float64    `json:"cpu_s"`
	RSSMB     float64    `json:"rss_mb"`
	Windows   int        `json:"windows"`
	Failed    int        `json:"failed"`
	MaxL1     float64    `json:"max_l1"`
	StealFrac float64    `json:"steal_frac"`
}

// checker holds the set-up-time references of the output checks.
type checker struct {
	in       *input
	sample   []int
	wcc      [][3]int32
	kcore    [][3]int32
	notes    []string
	mismatch int
}

func newChecker(e *env, in *input) (*checker, error) {
	c := &checker{in: in, sample: sampleWindows(e.seed, in.spec.Count)}
	if e.w.Produce != "models" {
		return c, nil
	}
	var err error
	if c.wcc, c.kcore, err = serialSummaries(in.log, in.spec); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.mismatch++
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// checkOutput reads the .pmrs a postmortem child wrote to path, which
// validates every window, and checks its sampled windows against the
// reference solve. It returns the windows that count as failed: those
// outside rankTolL1 plus the ones the child quarantined.
func (c *checker) checkOutput(cr childRun, path string) (failed int, maxL1 float64, err error) {
	s, err := readSeries(path)
	if err != nil {
		return 0, 0, fmt.Errorf("output check: %w", err)
	}
	bad, maxL1, err := checkRanks(s, c.in.log, c.in.spec, c.sample)
	if err != nil {
		return 0, 0, fmt.Errorf("output check: %w", err)
	}
	if bad > 0 {
		c.fail("%s: %d of %d sampled windows differ from the reference solve (max L1 %.3g > %g)",
			filepath.Base(path), bad, len(c.sample), maxL1, rankTolL1)
	}
	return bad + cr.Quarantined, maxL1, nil
}

// produceOnce runs one repetition and checks its output.
func produceOnce(ctx context.Context, e *env, c *checker) (rep, error) {
	var r rep
	if e.w.Produce == "postmortem" {
		cr, err := spawnChild(ctx, e, "postmortem", e.path("ranks.pmrs"))
		if err != nil {
			return r, err
		}
		r.Children = []childRun{cr}
		if r.Failed, r.MaxL1, err = c.checkOutput(cr, e.path("ranks.pmrs")); err != nil {
			return r, err
		}
	} else {
		for _, m := range modelNames {
			cr, err := spawnChild(ctx, e, m, "")
			if err != nil {
				return r, err
			}
			r.Children = append(r.Children, cr)
			var want [][3]int32
			switch m {
			case "components":
				want = c.wcc
			case "kcore":
				want = c.kcore
			}
			if want != nil {
				if bad := checkSummaries(cr.Summary, want); bad > 0 {
					c.fail("%s: %d windows differ from the serial run", m, bad)
					r.Failed += bad
				}
			}
		}
	}
	var runS float64
	for i := range r.Children {
		cr := &r.Children[i]
		r.SetupS = append(r.SetupS, cr.SetupS)
		r.PipelineS += cr.PipelineS
		r.CPUS += cr.CPUS
		r.RSSMB = max(r.RSSMB, cr.PeakRSSMB)
		r.Windows += cr.Windows
		runS += cr.RunS
		cr.Summary = nil // checked; keep the detail file small
	}
	r.WPS = float64(r.Windows) / runS
	return r, nil
}

// producePhase repeats the produce pipeline in fresh processes until
// budget has passed, at least once, and records the share of CPU time
// the hypervisor stole during each repetition. After each repetition it
// calls between with the share of budget passed so far.
func producePhase(ctx context.Context, e *env, c *checker, budget time.Duration, between func(done float64) error) ([]rep, error) {
	start := time.Now()
	var reps []rep
	for len(reps) == 0 || time.Since(start) < budget {
		var r rep
		steal, err := stealShare(func() (err error) {
			r, err = produceOnce(ctx, e, c)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.StealFrac = steal
		reps = append(reps, r)
		if err := between(float64(time.Since(start)) / float64(budget)); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// calmest returns the calm repetitions (see calm), in their order. On a
// shared virtual machine stolen CPU time stretches a repetition's wall
// time by as much as a third; the produce metrics are medians over these
// repetitions, so that a burst of steal during some of them does not
// move the figure. Every repetition stays in result.json.
func calmest(reps []rep) []rep {
	steal := make([]float64, len(reps))
	for i, r := range reps {
		steal[i] = r.StealFrac
	}
	var out []rep
	for i, ok := range calm(steal) {
		if ok {
			out = append(out, reps[i])
		}
	}
	return out
}
