// Command perfbench is the repository's benchmark: it runs the shipped
// chain, event file -> pmrank solve -> .pmrs -> pmserve query, on one
// named workload and prints every metric by name with its unit, then,
// as its last line, one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash perfbench/run.sh --workload solve-narrow --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it records a span around every call into
// the program's layers and reports the per-layer metrics instead. Output
// checks run on every invocation; a failed check makes the exit code 1.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: solve-narrow, solve-wide, serve-mixed or models-narrow")
		seed    = flag.Int64("seed", 1, "input generation seed")
		seconds = flag.Float64("seconds", 25, "measured seconds per invocation")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		bin     = flag.String("bin", ".bench_build", "directory holding the built perfbench and pmserve binaries")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	e := &env{w: w, seed: *seed, seconds: *seconds, binDir: *bin,
		work: filepath.Join(*bin, "work", fmt.Sprintf("%s-s%d-t%d", w.Name, *seed, *trace))}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run := runE2E
	if *trace == 1 {
		run = runTraced
	}
	steal0, total0, err := hostSteal()
	if err != nil {
		fatal(err)
	}
	res, det, err := run(ctx, e)
	if err != nil {
		fatal(err)
	}
	steal1, total1, err := hostSteal()
	if err != nil {
		fatal(err)
	}
	det.Descriptors.HostStealFrac = (steal1 - steal0) / (total1 - total0)
	if err := report(e, res, det); err != nil {
		fatal(err)
	}
	if !res.Correct {
		stop()
		os.Exit(1) // the inputs and outputs stay for inspection
	}
	// The inputs and .pmrs files follow from the seed; only the result
	// and the spans are kept.
	for _, f := range []string{"events.ev", "ranks.pmrs", "served.pmrs", "traced.pmrs", "untraced.pmrs"} {
		os.Remove(e.path(f))
	}
}

// report prints the descriptors, every metric with its unit and the
// check outcome, writes the details next to the inputs, and prints the
// result object as the last line.
func report(e *env, res *result, det *details) error {
	d, err := json.Marshal(det.Descriptors)
	if err != nil {
		return err
	}
	fmt.Printf("descriptors %s\n", d)
	if det.Descriptors.NumCPU < 2 {
		fmt.Println("warning: single-CPU host; parallel speed-ups cannot show")
	}
	if det.Descriptors.HostStealFrac > 0.05 {
		fmt.Printf("warning: the hypervisor stole %.0f%% of this machine's CPU time; wall times are inflated\n", 100*det.Descriptors.HostStealFrac)
	}
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		m.Value = finite(m.Value)
		res.Metrics[n] = m
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("fail_frac %.6g (%d failed of %d attempted)\n", det.FailFrac, res.Failed, res.Attempted)
	if det.Serve != nil && det.QueryP99Ms.N > 0 {
		fmt.Printf("not gated: query_p99_ms %.6g ms (%d samples, %d beyond); max_qps_at_slo %.6g 1/s\n",
			det.QueryP99Ms.Value, det.QueryP99Ms.N, det.QueryP99Ms.Beyond, det.MaxQPSAtSLO)
	}
	for _, c := range det.Checks {
		fmt.Printf("check failed: %s\n", c)
	}
	for _, n := range det.Notes {
		fmt.Printf("note: %s\n", n)
	}
	full, err := json.MarshalIndent(struct {
		Result  *result  `json:"result"`
		Details *details `json:"details"`
	}{res, det}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.work, "result.json"), full, 0o644); err != nil {
		return err
	}
	fmt.Printf("details written to %s\n", filepath.Join(e.work, "result.json"))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
