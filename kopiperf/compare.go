package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts compare prints.
const (
	verdictImproved       = "improved"
	verdictWorse          = "worse"
	verdictUnchanged      = "unchanged"
	verdictUnresolved     = "unresolved"
	verdictModelChange    = "MODEL CHANGE"
	verdictNondeterminism = "NONDETERMINISTIC"
)

// benchSpec is the part of BENCHMARK.json compare needs: every metric's
// direction, and each end-to-end metric's bound — the share of the old
// median by which it may worsen.
type benchSpec struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kopiperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: kopiperf compare [-bench BENCHMARK.json] old.jsonl new.jsonl")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "kopiperf compare:", err)
		return 1
	}
	var sets [2][]record
	for i, path := range fs.Args() {
		if sets[i], err = loadRecords(path); err != nil {
			fmt.Fprintln(stderr, "kopiperf compare:", err)
			return 1
		}
	}
	compareSets(stdout, spec, sets[0], sets[1])
	return 0
}

// loadRecords reads a JSON-lines file of run records.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// seedValue is one run's value of a metric.
type seedValue struct {
	seed int64
	v    float64
}

func values(svs []seedValue) []float64 {
	out := make([]float64, len(svs))
	for i, s := range svs {
		out[i] = s.v
	}
	return out
}

// compareSets prints, per workload and metric, both sets' medians and
// quartiles, the change of the median and a verdict. Runs that were not
// correct are left out with a warning: their numbers judge nothing.
func compareSets(w io.Writer, spec benchSpec, old, new []record) {
	old, new = correctOnly(w, "old", old), correctOnly(w, "new", new)
	type key struct{ workload, metric string }
	var vals [2]map[key][]seedValue
	workloads := map[string]bool{}
	for i, set := range [2][]record{old, new} {
		vals[i] = map[key][]seedValue{}
		for _, r := range set {
			workloads[r.Workload] = true
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				vals[i][k] = append(vals[i][k], seedValue{r.Seed, m.Value})
			}
		}
	}
	for _, warn := range fingerprintWarnings(old, new) {
		fmt.Fprintln(w, "warning:", warn)
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	tally := map[string]int{}
	for _, wl := range names {
		fmt.Fprintf(w, "== %s\n%-34s %-6s %-32s %-32s %8s  %s\n", wl, "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
		for _, group := range []struct {
			metrics []benchMetric
			bounded bool
		}{{spec.EndToEnd, true}, {spec.PerLayer, false}} {
			for _, m := range group.metrics {
				a, b := vals[0][key{wl, m.Name}], vals[1][key{wl, m.Name}]
				if len(a) == 0 && len(b) == 0 {
					continue
				}
				def, _ := metricByName(m.Name)
				v := "-"
				switch {
				case def.exact:
					v = exactVerdict(a, b)
				case group.bounded:
					v = verdict(values(a), values(b), m.Better, m.Bound)
				}
				if group.bounded || def.exact {
					tally[v]++
				}
				ma, mb := median(values(a)), median(values(b))
				fmt.Fprintf(w, "%-34s %-6s %-32s %-32s %+7.2f%%  %s\n", m.Name, m.Unit,
					spreadString(values(a)), spreadString(values(b)), 100*ratio(mb-ma, math.Abs(ma)), v)
			}
		}
	}
	fmt.Fprintf(w, "verdicts: improved %d, worse %d, unchanged %d, unresolved %d, model change %d, nondeterministic %d\n",
		tally[verdictImproved], tally[verdictWorse], tally[verdictUnchanged], tally[verdictUnresolved],
		tally[verdictModelChange], tally[verdictNondeterminism])
}

// correctOnly returns the records of set whose run was correct, and warns
// about each one it leaves out.
func correctOnly(w io.Writer, label string, set []record) []record {
	var out []record
	for _, r := range set {
		if !r.Result.Correct {
			fmt.Fprintf(w, "warning: left out the %s set's incorrect run of %s, seed %d (%d failed)\n", label, r.Workload, r.Seed, r.Result.Failed)
			continue
		}
		out = append(out, r)
	}
	return out
}

func spreadString(xs []float64) string {
	if len(xs) == 0 {
		return "(none)"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}

// verdict judges a measured (host) metric. delta is how much worse the new
// median is than the old, as a share of the old; noise is the wider of the
// two sets' quartile spreads as a share of their medians. Noise wider than
// the bound leaves the metric unresolved unless every new run beats every
// old one. Otherwise the bound is the resolution both ways: a delta past
// it is worse, one past it in the other direction improved, anything
// between unchanged. Two sets taken at different times on a shared host
// drift by more than their own spread, so a smaller gain is not
// resolvable from unpaired sets; claiming one needs paired runs.
func verdict(old, new []float64, better string, bound float64) string {
	if len(old) == 0 || len(new) == 0 {
		return verdictUnresolved
	}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	delta := sign * ratio(median(new)-median(old), math.Abs(median(old)))
	if math.Max(relSpread(old), relSpread(new)) > bound {
		for _, n := range new {
			for _, o := range old {
				if sign*(n-o) >= 0 {
					return verdictUnresolved
				}
			}
		}
		return verdictImproved
	}
	switch {
	case delta > bound:
		return verdictWorse
	case delta < -bound:
		return verdictImproved
	}
	return verdictUnchanged
}

// relSpread is the quartile spread of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// exactVerdict judges a simulated metric, which must repeat exactly for a
// seed: any difference between the sets on a common seed is a model change,
// a difference within one set is nondeterminism, and with no common seed
// nothing can be said.
func exactVerdict(old, new []seedValue) string {
	first := [2]map[int64]float64{{}, {}}
	for i, set := range [2][]seedValue{old, new} {
		for _, s := range set {
			if v, ok := first[i][s.seed]; ok && v != s.v {
				return verdictNondeterminism
			}
			first[i][s.seed] = s.v
		}
	}
	common := 0
	for seed, v := range first[0] {
		if n, ok := first[1][seed]; ok {
			common++
			if n != v {
				return verdictModelChange
			}
		}
	}
	if common == 0 {
		return verdictUnresolved
	}
	return verdictUnchanged
}

// fingerprintWarnings reports workload definitions and hosts that differ
// between or within the sets: such results do not compare.
func fingerprintWarnings(old, new []record) []string {
	var out []string
	hash := map[string]string{}
	host := map[fingerprint]bool{}
	commits := [2]map[string]bool{{}, {}}
	for i, set := range [2][]record{old, new} {
		for _, r := range set {
			if h, ok := hash[r.Workload]; ok && h != r.ConfigHash {
				out = append(out, fmt.Sprintf("workload %s ran under different definitions (%s, %s)", r.Workload, h, r.ConfigHash))
			}
			hash[r.Workload] = r.ConfigHash
			fp := r.Host
			fp.Commit = ""
			host[fp] = true
			commits[i][r.Host.Commit] = true
		}
	}
	if len(host) > 1 {
		out = append(out, fmt.Sprintf("results come from %d different hosts or toolchains", len(host)))
	}
	for i, label := range []string{"old", "new"} {
		if len(commits[i]) > 1 {
			out = append(out, fmt.Sprintf("the %s set mixes %d commits", label, len(commits[i])))
		}
	}
	return out
}
