package bench

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"time"

	"pmpr/internal/core"
	"pmpr/internal/obs"
)

// JSONSchema identifies the machine-readable results format; bump the
// suffix when the layout changes incompatibly.
const JSONSchema = "pmpr-bench/v1"

// ExperimentResult is one experiment's timing inside a JSONReport.
type ExperimentResult struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
}

// EngineRunSummary condenses one engine RunReport to the fields the
// perf trajectory compares across commits (the full report stays
// available via pmrank -report-out).
type EngineRunSummary struct {
	Kernel          string  `json:"kernel"`
	Mode            string  `json:"mode"`
	Windows         int     `json:"windows"`
	Workers         int     `json:"workers"`
	WallSeconds     float64 `json:"wall_seconds"`
	TotalIterations int     `json:"total_iterations"`
	TotalSweeps     int64   `json:"total_sweeps"`
	WarmStartRate   float64 `json:"warm_start_rate"`
	LoadImbalance   float64 `json:"load_imbalance,omitempty"`
	ScratchHitRate  float64 `json:"scratch_hit_rate,omitempty"`
	// WallP50/P95/P99 are the per-window wall-time percentiles from the
	// run's histogram, so -diff tracks tail latency alongside totals.
	WallP50 float64 `json:"wall_p50,omitempty"`
	WallP95 float64 `json:"wall_p95,omitempty"`
	WallP99 float64 `json:"wall_p99,omitempty"`
	// InRunsGraph, InRunsScanned, InRunsPulled and ScanEfficiency are
	// the run's deterministic kernel work counters (see core.RunReport).
	InRunsGraph    int64   `json:"in_runs_graph"`
	InRunsScanned  int64   `json:"in_runs_scanned"`
	InRunsPulled   int64   `json:"in_runs_pulled"`
	ScanEfficiency float64 `json:"scan_efficiency"`
}

// JSONReport is the machine-readable counterpart of the rendered
// tables: per-experiment wall times plus condensed engine run reports,
// stamped with the build and harness parameters so BENCH_*.json files
// from different commits are comparable.
type JSONReport struct {
	Schema    string        `json:"schema"`
	Timestamp string        `json:"timestamp"`
	Build     obs.BuildInfo `json:"build"`

	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Workers    int     `json:"workers"`
	Quick      bool    `json:"quick"`
	MaxWindows int     `json:"max_windows"`

	Experiments  []ExperimentResult `json:"experiments"`
	EngineRuns   []EngineRunSummary `json:"engine_runs,omitempty"`
	TotalSeconds float64            `json:"total_seconds"`
}

// NewJSONReport stamps a report with the build and the (defaulted)
// harness parameters.
func NewJSONReport(o Options) *JSONReport {
	o = o.withDefaults()
	return &JSONReport{
		Schema:     JSONSchema,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Build:      obs.CollectBuildInfo(),
		Scale:      o.Scale,
		Seed:       o.Seed,
		Workers:    o.Workers,
		Quick:      o.Quick,
		MaxWindows: o.MaxWindows,
	}
}

// Sink returns a ReportSink that appends a condensed summary of every
// engine run to the report; install it in Options before running.
func (j *JSONReport) Sink() func(*core.RunReport) {
	return func(r *core.RunReport) {
		j.EngineRuns = append(j.EngineRuns, EngineRunSummary{
			Kernel:          r.Config.Kernel,
			Mode:            r.Config.Mode,
			Windows:         r.Windows,
			Workers:         r.Workers,
			WallSeconds:     r.WallSeconds,
			TotalIterations: r.TotalIterations,
			TotalSweeps:     r.TotalSweeps,
			WarmStartRate:   r.WarmStart.HitRate,
			LoadImbalance:   loadImbalance(r),
			ScratchHitRate:  scratchHitRate(r),
			WallP50:         r.WindowWallPercentiles.P50,
			WallP95:         r.WindowWallPercentiles.P95,
			WallP99:         r.WindowWallPercentiles.P99,
			InRunsGraph:     r.InRunsGraph,
			InRunsScanned:   r.InRunsScanned,
			InRunsPulled:    r.InRunsPulled,
			ScanEfficiency:  r.ScanEfficiency,
		})
	}
}

func loadImbalance(r *core.RunReport) float64 {
	if r.Sched == nil {
		return 0
	}
	return r.Sched.LoadImbalance
}

func scratchHitRate(r *core.RunReport) float64 {
	if r.Scratch == nil {
		return 0
	}
	return r.Scratch.HitRate
}

// RunExperiment executes one experiment, timing it and recording the
// outcome (including failures) in the report. The experiment's own
// error is returned so the caller can still abort the suite.
func (j *JSONReport) RunExperiment(ctx context.Context, e Experiment, o Options) error {
	secs, err := timeIt(func() error { return e.Run(ctx, o) })
	res := ExperimentResult{ID: e.ID, Title: e.Title, Seconds: secs}
	if err != nil {
		res.Error = err.Error()
	}
	j.Experiments = append(j.Experiments, res)
	j.TotalSeconds += secs
	return err
}

// WriteJSON writes the indented report followed by a newline.
func (j *JSONReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes the report to path.
func (j *JSONReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := j.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
