package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pmpr/internal/cliutil"
	"pmpr/internal/events"
	"pmpr/internal/gen"
	"pmpr/internal/tcsr"
)

// workload is one named input of the benchmark. Every workload runs
// the shipped chain, event file -> .pmrs -> served query. Each solves
// the .pmrs it serves once, untimed, during set-up, and drives pmserve
// -load on it with the open-loop generator. A produce phase repeats the
// pmrank path (or the model paths) in fresh processes, with the serve
// reference step's chunks sent between its repetitions.
type workload struct {
	Name      string
	Dataset   string
	Scale     float64
	DeltaDays float64
	Slide     int64
	// Produce is the produce phase: "postmortem" (the pmrank path),
	// "models" (components, k-core and closeness) or "" (none).
	Produce string
	// ProduceShare is the share of --seconds the produce phase repeats
	// for, besides its reference step; the last repetition may run past
	// it.
	ProduceShare float64
	// Steps are the serve phase's fixed-rate steps. The first runs at
	// the reference rate, where the query latencies are reported; the
	// ladder stops at the first step that misses the SLO. A workload
	// with a produce phase has only the reference step.
	Steps []stepSpec
	// ColdStarts is how many times pmserve is started to time its
	// start-up; the last instance serves the steps.
	ColdStarts int
	// StepReloads republishes the served file by SIGHUP at a fixed
	// offset in every ladder step, a write beside the reads. Elsewhere
	// the steps only probe query latency on the workload's own series.
	StepReloads bool
}

// stepSpec is one serve step: a request rate and the share of
// --seconds it runs for.
type stepSpec struct {
	Rate  float64
	Share float64
}

var workloads = []workload{
	{Name: "solve-narrow", Dataset: "wikitalk", Scale: 0.05, DeltaDays: 15, Slide: 86400,
		Produce: "postmortem", ProduceShare: 0.75, Steps: []stepSpec{{refRate, 0.15}}, ColdStarts: 1},
	{Name: "solve-wide", Dataset: "enron", Scale: 0.15, DeltaDays: 730, Slide: 172800,
		Produce: "postmortem", ProduceShare: 0.75, Steps: []stepSpec{{refRate, 0.15}}, ColdStarts: 1},
	{Name: "serve-mixed", Dataset: "enron", Scale: 0.15, DeltaDays: 730, Slide: 172800,
		Steps:      []stepSpec{{refRate, 0.3}, {2 * refRate, 0.1}, {4 * refRate, 0.1}, {6 * refRate, 0.1}},
		ColdStarts: 9, StepReloads: true},
	{Name: "models-narrow", Dataset: "wikitalk", Scale: 0.05, DeltaDays: 15, Slide: 86400,
		Produce: "models", ProduceShare: 0.75, Steps: []stepSpec{{refRate, 0.15}}, ColdStarts: 1},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// refRate is the reference request rate, 1/s: low enough that on a
	// 2-CPU host the median latency is service time, not queueing.
	refRate = 500
	// minStep is the shortest serve step: at refRate it yields enough
	// samples for a p99 with minTail beyond it.
	minStep = 2500 * time.Millisecond
	// keepEvery: every keepEvery-th response body is checked.
	keepEvery = 25
)

// serveSLO is the limit every ladder step is held to.
var serveSLO = slo{P99Ms: 25, FailFrac: 0.01, BacklogMs: 25}

// env is one benchmark invocation.
type env struct {
	w       workload
	seed    int64
	seconds float64
	binDir  string
	work    string
}

func (e *env) path(name string) string { return filepath.Join(e.work, name) }

// input is a workload's generated input and its descriptors.
type input struct {
	log  *events.Log // symmetrized, as every solve sees it
	spec events.WindowSpec
	desc descriptors
}

// descriptors record the shape of the input and the host in every
// result, so a figure is never read without them.
type descriptors struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Events        int     `json:"events"`
	Vertices      int32   `json:"vertices"`
	Windows       int     `json:"windows"`
	MWGraphs      int     `json:"mw_graphs"`
	StoredEvents  int64   `json:"tcsr_stored_events"`
	TCSRBytes     int64   `json:"tcsr_bytes"`
	ActiveRunFrac float64 `json:"tcsr_active_run_frac"`
	PMRSBytes     int64   `json:"pmrs_bytes"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	// HostStealFrac is the share of this machine's CPU time the
	// hypervisor stole while the invocation ran. Wall times stretch
	// with it; CPU times mostly do not.
	HostStealFrac float64 `json:"host_steal_frac"`
}

// engineFlags returns pmrank's engine flag defaults.
func engineFlags() *cliutil.EngineFlags {
	fs := flag.NewFlagSet("defaults", flag.ContinueOnError)
	ef := cliutil.RegisterEngineFlags(fs)
	_ = fs.Parse(nil) // no arguments: cannot fail
	return ef
}

// prepare generates the workload's event log from the seed and writes
// it as the binary event file the program reads. Nothing here is timed.
func prepare(e *env) (*input, error) {
	ds, ok := gen.Get(e.w.Dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", e.w.Dataset)
	}
	raw, err := ds.Generate(e.w.Scale, e.seed)
	if err != nil {
		return nil, err
	}
	in := &input{}
	var buf bytes.Buffer
	if err := events.WriteBinary(&buf, raw); err != nil {
		return nil, err
	}
	if err := os.WriteFile(e.path("events.ev"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	in.log = raw.Symmetrize()
	in.spec, err = events.Span(in.log, int64(e.w.DeltaDays*float64(gen.Day)), e.w.Slide)
	if err != nil {
		return nil, err
	}
	ef := engineFlags()
	tg, err := tcsr.Build(in.log, in.spec, ef.MW, ef.Directed)
	if err != nil {
		return nil, err
	}
	in.desc = descriptors{
		Workload: e.w.Name, Seed: e.seed,
		Events: raw.Len(), Vertices: raw.NumVertices(), Windows: in.spec.Count, MWGraphs: len(tg.MWs),
		StoredEvents: tg.TotalStoredEvents(), TCSRBytes: tg.MemoryBytes(), ActiveRunFrac: activeRunFrac(tg),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	return in, nil
}

// activeRunFrac is the share of in-edge runs the kernels scan that are
// active in their window: the sum over windows of the window's active
// edges over the sum of the in-edge runs of its multi-window graph.
func activeRunFrac(tg *tcsr.Temporal) float64 {
	var active, scanned int64
	for _, mw := range tg.MWs {
		runs := inRuns(mw)
		for w := mw.WinLo; w < mw.WinHi; w++ {
			active += mw.ActiveEdges(w)
			scanned += runs
		}
	}
	if scanned == 0 {
		return 0
	}
	return float64(active) / float64(scanned)
}

// inRuns counts the in-edge runs of mw: maximal stretches of one
// neighbor within a vertex's in-adjacency.
func inRuns(mw *tcsr.MultiWindow) int64 {
	var runs int64
	for v := 0; v+1 < len(mw.InRow); v++ {
		for i := mw.InRow[v]; i < mw.InRow[v+1]; i++ {
			if i == mw.InRow[v] || mw.InCol[i] != mw.InCol[i-1] {
				runs++
			}
		}
	}
	return runs
}
