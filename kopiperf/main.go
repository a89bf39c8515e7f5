// Command kopiperf is the per-packet benchmark of the KOPI dataplane. It
// builds KOPI worlds through internal/arch, the surface every experiment
// driver uses, feeds each one seeded open-loop traffic on one goroutine,
// and reports what one simulated packet costs to cross the dataplane: host
// CPU time, heap allocations and set-up time measured with tracing off,
// simulated delivery and latency, and — in a separate traced run — a split
// of that cost across the repo's layers from spans around the benchmark's
// calls, an attributed CPU profile, an allocation profile and the layers'
// public counters.
//
// Usage:
//
//	kopiperf --workload rx_fastpath --seed 1 --seconds 10 --trace 0 [--out results.jsonl]
//	kopiperf compare [-bench BENCHMARK.json] old.jsonl new.jsonl
//
// A run prints progress, the host fingerprint and every metric by name and
// unit, then as its last line one JSON object with the keys correct,
// attempted, failed and metrics. --out appends the full record (host
// fingerprint, seed, workload config hash, failures) to a JSON-lines file
// that compare reads. README.md documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kopiperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "rx_fastpath", "workload to run: rx_fastpath, rx_churn or txrx_echo")
	seed := fs.Int64("seed", 1, "seed the offered load is generated from")
	seconds := fs.Float64("seconds", 10, "host seconds of timed windows to measure")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics untraced; 1 runs traced and reports per-layer metrics")
	out := fs.String("out", "", "append the full result record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "kopiperf: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "kopiperf: --seconds must not be negative")
		return 2
	}
	cfg, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "kopiperf:", err)
		return 2
	}
	// One goroutine drives the world. A second P would only run
	// idle-priority GC mark workers, whose CPU time depends on how the
	// hypervisor schedules the second vCPU; on one P the collector's work
	// runs beside the simulation and CPU time counts exactly what the
	// program does. Interleaved runs of txrx_echo halved the quartile
	// spread of CPU ns per packet (0.035 to 0.018) and of setup_s (0.12 to
	// 0.04) this way.
	runtime.GOMAXPROCS(1)
	h := hostFingerprint()
	fmt.Fprintf(stdout, "kopiperf %s seed=%d trace=%d config=%s\nhost: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cfg.Name, *seed, *trace, configHash(cfg), h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	rec, err := runWorkload(cfg, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "kopiperf:", err)
		return 1
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(stdout, "FAIL:", f)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Result.Metrics[n]
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d, correct %v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "kopiperf:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "kopiperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
