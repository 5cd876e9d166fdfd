package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"pmpr/internal/cliutil"
	"pmpr/internal/closeness"
	"pmpr/internal/core"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/kcore"
	"pmpr/internal/results"
	"pmpr/internal/sched"
	"pmpr/internal/wcc"
)

// childReport is what one child process prints as its last stdout
// line: its own phase timings and the outcome the parent checks.
type childReport struct {
	Model string `json:"model"`
	// SetupS is log read + symmetrize + span + engine construction.
	SetupS float64 `json:"setup_s"`
	// RunS is the time inside the engine's Run.
	RunS float64 `json:"run_s"`
	// PipelineS is event file to output: the .pmrs closed on disk, or
	// the model series in memory.
	PipelineS float64 `json:"pipeline_s"`
	// PeakRSSMB is the process's own peak resident memory (VmHWM).
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	Windows     int     `json:"windows"`
	Quarantined int     `json:"quarantined"`
	Unconverged int     `json:"unconverged"`
	// Summary holds per-window model statistics (components and k-core)
	// for the pool-versus-serial check.
	Summary [][3]int32 `json:"summary,omitempty"`
}

// childMain runs one pipeline the way pmrank does, with pmrank's engine
// defaults, and reports on stdout. It runs in a fresh process per
// repetition, because pmrank users pay the cold start on every run.
//
//	perfbench child -model postmortem -in F -delta-days D -slide S -out F.pmrs
//	perfbench child -model components|kcore|closeness -in F -delta-days D -slide S
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	model := fs.String("model", "postmortem", "postmortem, components, kcore or closeness")
	in := fs.String("in", "", "event file")
	deltaDays := fs.Float64("delta-days", 90, "window size in days")
	slide := fs.Int64("slide", 86400, "sliding offset in seconds")
	out := fs.String("out", "", ".pmrs output (postmortem)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := runChild(*model, *in, *deltaDays, *slide, *out, engineFlags())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// runChild is pmrank's sequence of public calls: cliutil.ReadLog,
// Log.Symmetrize, events.Span, the model's NewEngine with pmrank's
// configuration, Run and, for PageRank, results.Write.
func runChild(model, in string, deltaDays float64, slide int64, out string, ef *cliutil.EngineFlags) (childReport, error) {
	rep := childReport{Model: model}
	start := time.Now()
	l, err := cliutil.ReadLog(in)
	if err != nil {
		return rep, err
	}
	if !ef.Directed {
		l = l.Symmetrize()
	}
	spec, err := events.Span(l, int64(deltaDays*float64(gen.Day)), slide)
	if err != nil {
		return rep, err
	}
	rep.Windows = spec.Count
	pool := sched.NewPool(ef.Workers)
	defer pool.Close()

	var runStart time.Time
	ran := func() { rep.RunS = time.Since(runStart).Seconds() }
	var run func() error
	switch model {
	case "postmortem":
		cfg := core.DefaultConfig()
		ef.ApplyTo(&cfg)
		eng, err := core.NewEngine(l, spec, cfg, pool)
		if err != nil {
			return rep, err
		}
		run = func() error {
			s, err := eng.Run(context.Background())
			if err != nil {
				return err
			}
			rep.Quarantined = len(s.Quarantined())
			if s.Report != nil {
				rep.Unconverged = s.Report.Residuals.Unconverged
			}
			ran()
			return writeSeries(out, s)
		}
	case "components":
		eng, err := wcc.NewEngine(l, spec, wccConfig(ef), pool)
		if err != nil {
			return rep, err
		}
		run = func() error {
			s, err := eng.Run()
			if err != nil {
				return err
			}
			ran()
			rep.Summary = wccSummary(s)
			return nil
		}
	case "kcore":
		eng, err := kcore.NewEngine(l, spec, kcoreConfig(ef), pool)
		if err != nil {
			return rep, err
		}
		run = func() error {
			s, err := eng.Run()
			if err != nil {
				return err
			}
			ran()
			rep.Summary = kcoreSummary(s)
			return nil
		}
	case "closeness":
		eng, err := closeness.NewEngine(l, spec, closenessConfig(ef), pool)
		if err != nil {
			return rep, err
		}
		run = func() error {
			if _, err := eng.Run(); err != nil {
				return err
			}
			ran()
			return nil
		}
	default:
		return rep, fmt.Errorf("unknown model %q", model)
	}
	rep.SetupS = time.Since(start).Seconds()
	runStart = time.Now()
	if err := run(); err != nil {
		return rep, err
	}
	rep.PipelineS = time.Since(start).Seconds()
	rep.PeakRSSMB, err = procPeakRSS(os.Getpid())
	return rep, err
}

// wccConfig, kcoreConfig and closenessConfig are the configurations
// pmrank -model components|kcore|closeness builds from its flags.
func wccConfig(ef *cliutil.EngineFlags) wcc.Config {
	cfg := wcc.DefaultConfig()
	cfg.Partitioner, cfg.Grain, cfg.NumMultiWindows, cfg.Directed = ef.SchedPartitioner(), ef.Grain, ef.MW, ef.Directed
	return cfg
}

func kcoreConfig(ef *cliutil.EngineFlags) kcore.Config {
	cfg := kcore.DefaultConfig()
	cfg.Partitioner, cfg.Grain, cfg.NumMultiWindows, cfg.Directed = ef.SchedPartitioner(), ef.Grain, ef.MW, ef.Directed
	return cfg
}

func closenessConfig(ef *cliutil.EngineFlags) closeness.Config {
	cfg := closeness.DefaultConfig()
	cfg.Partitioner, cfg.Grain, cfg.NumMultiWindows, cfg.Directed = ef.SchedPartitioner(), ef.Grain, ef.MW, ef.Directed
	cfg.SampleSources = 16 // pmrank's per-window BFS source sample
	return cfg
}

// serialSummaries runs components and k-core with a nil pool, the
// serial reference the pool runs must equal.
func serialSummaries(l *events.Log, spec events.WindowSpec) (wccS, kcoreS [][3]int32, err error) {
	ef := engineFlags()
	we, err := wcc.NewEngine(l, spec, wccConfig(ef), nil)
	if err != nil {
		return nil, nil, err
	}
	ws, err := we.Run()
	if err != nil {
		return nil, nil, err
	}
	ke, err := kcore.NewEngine(l, spec, kcoreConfig(ef), nil)
	if err != nil {
		return nil, nil, err
	}
	ks, err := ke.Run()
	if err != nil {
		return nil, nil, err
	}
	return wccSummary(ws), kcoreSummary(ks), nil
}

// writeSeries writes s to path as pmrank -out does.
func writeSeries(path string, s *core.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := results.Write(f, s.Export()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wccSummary is the per-window (active vertices, components, largest
// component) of a components series.
func wccSummary(s *wcc.Series) [][3]int32 {
	out := make([][3]int32, s.Len())
	for i := range out {
		r := s.Window(i)
		out[i] = [3]int32{r.ActiveVertices, r.Components, r.LargestSize}
	}
	return out
}

// kcoreSummary is the per-window (active vertices, max core, max-core
// size) of a k-core series.
func kcoreSummary(s *kcore.Series) [][3]int32 {
	out := make([][3]int32, s.Len())
	for i := range out {
		r := s.Window(i)
		out[i] = [3]int32{r.ActiveVertices, r.MaxCore, r.MaxCoreSize}
	}
	return out
}
