package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a smoke-test length.
func tiny(t *testing.T, name string) config {
	t.Helper()
	cfg, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup, cfg.Window = 3000, 6000
	return cfg
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, cfg := range workloads {
		cfg.Warmup, cfg.Window = 2000, 5000
		a, b, c := generate(cfg, 7), generate(cfg, 7), generate(cfg, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", cfg.Name)
		}
		if reflect.DeepEqual(a.offers, c.offers) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", cfg.Name)
		}
		if a.warm < cfg.Warmup || a.end-a.warm < cfg.Window || len(a.offers) != a.end+1 {
			t.Errorf("%s: warm %d end %d len %d for warm-up %d window %d", cfg.Name, a.warm, a.end, len(a.offers), cfg.Warmup, cfg.Window)
		}
		for i := 1; i < len(a.offers); i++ {
			o, p := a.offers[i], a.offers[i-1]
			if o.at < p.at {
				t.Fatalf("%s: offer %d goes back in time", cfg.Name, i)
			}
			if o.at == p.at && (o.flow != p.flow || !cfg.Echo) {
				t.Fatalf("%s: offers %d and %d share an instant outside one batch", cfg.Name, i-1, i)
			}
		}
		// Batches never straddle the window's edges.
		for _, i := range []int{a.warm, a.end} {
			if a.offers[i].at == a.offers[i-1].at {
				t.Errorf("%s: a batch straddles offer %d", cfg.Name, i)
			}
		}
	}
}

func TestLedgerCatchesMismatch(t *testing.T) {
	balanced := counters{rxWire: 100, txFrames: 0}
	balanced.drops[2] = 7 // rx_fifo
	if g := ledgerGaps(false, 100, 93, 0, balanced); len(g) != 0 {
		t.Fatalf("balanced receive ledger reported %v", g)
	}
	// One frame neither delivered nor dropped.
	if g := ledgerGaps(false, 100, 92, 0, balanced); len(g) != 1 || g[0] != (gap{"rx", 1}) {
		t.Fatalf("missing frame: got %v", g)
	}
	// A drop counted twice: the per-tenant breakdown summed with its total.
	double := balanced
	double.drops[2] += 7
	if g := ledgerGaps(false, 100, 93, 0, double); len(g) != 1 || g[0] != (gap{"rx", -7}) {
		t.Fatalf("double-counted drops: got %v", g)
	}
	echo := counters{rxWire: 48, txFrames: 48}
	echo.drops[firstTxDrop] = 2 // tx_app
	if g := ledgerGaps(true, 50, 48, 48, echo); len(g) != 0 {
		t.Fatalf("balanced echo ledger reported %v", g)
	}
	if g := ledgerGaps(true, 51, 48, 48, echo); len(g) != 1 || g[0] != (gap{"tx", 1}) {
		t.Fatalf("lost app datagram: got %v", g)
	}
	if g := ledgerGaps(true, 50, 48, 47, echo); len(g) != 3 {
		t.Fatalf("frame lost on the wire: got %v", g)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "norman/internal/packet.NewUDP"}, layerAlloc},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "norman/internal/nic.(*NIC).rxAdmit"}, layerGC},
		{[]string{"runtime.mapaccess2", "norman/internal/nic.(*NIC).steer", "norman/internal/sim.(*Engine).Step"}, "nic"},
		{[]string{"norman/internal/nic.(*FlowCache).Lookup", "norman/internal/nic.(*NIC).fcLookup"}, "nic.flowcache"},
		{[]string{"norman/internal/nic.(*TenantDRR).Request"}, "nic.tenant"},
		{[]string{"norman/internal/sim.(*Engine).siftDown", "norman/internal/sim.(*Engine).pop"}, "sim"},
		{[]string{"time.runtimeNow", "time.Now", "main.(*rep).lap"}, layerBench},
		{[]string{"runtime.futex", "runtime.sysmon"}, layerOther},
		{nil, layerOther},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestSelfTimesPartitionWall(t *testing.T) {
	cpu := map[string]int64{"sim": 30, "nic": 20, "nic.flowcache": 5, "nic.tenant": 5, layerAlloc: 10,
		layerBench: 10, layerOther: 10, "filter": 10}
	self := selfTimes(cpu, 1000)
	var sum float64
	for _, l := range selfLayers {
		sum += self[l]
	}
	if sum < 999.999 || sum > 1000.001 {
		t.Fatalf("layer self times sum to %v, want the 1000 ns/packet split", sum)
	}
	if self["nic"] != 300 || self["nic.flowcache"] != 50 {
		t.Errorf("nic %v (want 300, its sub-layers included), nic.flowcache %v (want 50)", self["nic"], self["nic.flowcache"])
	}
	if self[layerOther] != 200 {
		t.Errorf("other = %v, want 200 (its own samples plus the unlisted filter package)", self[layerOther])
	}
}

// TestCPUProfileAttribution profiles a real repetition and checks the
// reader: samples decode, every one lands in some layer, the layers'
// self times sum to the wall and other is reported.
func TestCPUProfileAttribution(t *testing.T) {
	cfg := tiny(t, "rx_fastpath")
	cfg.Window = 60_000
	in := generate(cfg, 1)
	var prof bytes.Buffer
	if _, err := runRep(cfg, in, repMode{spans: true, cpu: &prof}); err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Fatal("no samples decoded")
	}
	cpu := map[string]int64{}
	p.attribute(cpu)
	var repoFrames bool
	for l := range cpu {
		repoFrames = repoFrames || l == "sim" || l == "nic" || l == "cache" || l == "arch"
	}
	if !repoFrames {
		t.Errorf("no sample attributed to the repo's packages: %v", cpu)
	}
	self := selfTimes(cpu, 1234)
	var sum float64
	for _, l := range selfLayers {
		sum += self[l]
	}
	if sum < 1233.999 || sum > 1234.001 {
		t.Errorf("self times sum to %v, want 1234", sum)
	}
	if _, ok := self[layerOther]; !ok {
		t.Error("other is not reported")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name     string
		old, new []float64
		better   string
		want     string
	}{
		{"same", base, base, "lower", verdictUnchanged},
		{"small drift", base, shift(base, 1.03), "lower", verdictUnchanged},
		{"gain inside the bound", base, shift(base, 0.93), "lower", verdictUnchanged},
		{"regression", base, shift(base, 1.2), "lower", verdictWorse},
		{"gain", base, shift(base, 0.85), "lower", verdictImproved},
		{"gain on a higher-is-better metric", base, shift(base, 1.15), "higher", verdictImproved},
		{"loss on a higher-is-better metric", base, shift(base, 0.8), "higher", verdictWorse},
		{"noise wider than the bound", base, noisy, "lower", verdictUnresolved},
		{"noisy but every new run better", noisy, shift(noisy, 0.3), "lower", verdictImproved},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.new, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	sv := func(pairs ...float64) []seedValue {
		var out []seedValue
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, seedValue{int64(pairs[i]), pairs[i+1]})
		}
		return out
	}
	exact := []struct {
		name     string
		old, new []seedValue
		want     string
	}{
		{"identical", sv(1, 0.5, 2, 0.6), sv(1, 0.5, 2, 0.6), verdictUnchanged},
		{"moved", sv(1, 0.5, 2, 0.6), sv(1, 0.5, 2, 0.61), verdictModelChange},
		{"no common seed", sv(1, 0.5), sv(2, 0.5), verdictUnresolved},
		{"differs within a set", sv(1, 0.5, 1, 0.6), sv(1, 0.5), verdictNondeterminism},
	}
	for _, c := range exact {
		if got := exactVerdict(c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareLeavesOutIncorrectRuns(t *testing.T) {
	spec := benchSpec{EndToEnd: []benchMetric{
		{Name: "cpu_refiters_per_pkt", Unit: "refiter", Better: "lower", Bound: 0.1},
		{Name: "sim_delivered_frac", Unit: "ratio", Better: "higher", Bound: 0.02},
	}}
	rec := func(seed int64, correct bool, cpu, delivered float64) record {
		r := record{Workload: "rx_fastpath", Seed: seed, Result: result{Correct: correct, Metrics: map[string]metricValue{
			"cpu_refiters_per_pkt": {Value: cpu},
			"sim_delivered_frac":   {Value: delivered},
		}}}
		if !correct {
			r.Result.Failed = 3
		}
		return r
	}
	old := []record{rec(1, true, 100, 1), rec(2, true, 101, 1), rec(3, true, 99, 1)}
	// The broken run would drag the new median past the bound and, on a
	// seed the old set also ran, read as a model change.
	new := []record{rec(1, true, 100, 1), rec(2, false, 500, 0.5), rec(3, true, 99, 1)}
	var out bytes.Buffer
	compareSets(&out, spec, old, new)
	got := out.String()
	if !strings.Contains(got, "left out the new set's incorrect run of rx_fastpath, seed 2") {
		t.Errorf("no warning naming the incorrect run:\n%s", got)
	}
	if !strings.Contains(got, "verdicts: improved 0, worse 0, unchanged 2, unresolved 0, model change 0") {
		t.Errorf("the incorrect run moved a verdict:\n%s", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSteadyStateGuard(t *testing.T) {
	mk := func(pending []int, ns []float64) *rep {
		r := &rep{}
		for i, p := range pending {
			r.slices = append(r.slices, sliceStat{cpu: time.Duration(ns[i] * 1000), pkts: 1000, pending: p})
		}
		return r
	}
	flat := []float64{100, 100, 100, 100, 100, 100, 100, 100}
	if f := steadyState([]*rep{mk([]int{50, 60, 40, 55, 50, 45, 60, 50}, flat)}); len(f) != 0 {
		t.Errorf("steady window flagged: %v", f)
	}
	if f := steadyState([]*rep{mk([]int{100, 300, 600, 900, 1200, 1500, 1800, 2100}, flat)}); len(f) != 1 || !strings.Contains(f[0], "backlog") {
		t.Errorf("growing backlog not flagged: %v", f)
	}
	climb := []float64{100, 100, 110, 120, 150, 180, 200, 220}
	if f := steadyState([]*rep{mk(make([]int, 8), climb)}); len(f) != 1 || !strings.Contains(f[0], "climbs") {
		t.Errorf("climbing host time not flagged: %v", f)
	}
	cold := mk(make([]int, 8), flat)
	cold.slices[0].c.fcMisses = 500 // first slice all misses
	cold.win.fcHits, cold.win.fcMisses = 7500, 500
	if f := steadyState([]*rep{cold}); len(f) != 1 || !strings.Contains(f[0], "flow-cache") {
		t.Errorf("cold cache not flagged: %v", f)
	}
}

// TestSmoke runs each workload at a tiny length, untraced and traced: the
// output check passes with no failed operation, every metric is reported,
// and the traced run's simulated summary matches the untraced one's.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		cfg := tiny(t, w.Name)
		var log bytes.Buffer
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(cfg, 3, 0, traced, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", cfg.Name, traced, err)
			}
			if rec.Result.Attempted == 0 || rec.Result.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", cfg.Name, traced, rec.Result.Attempted, rec.Result.Failed)
			}
			for _, f := range rec.Failures {
				// A tiny window is too short for the steady-state guard;
				// everything else must hold.
				if !strings.Contains(f, "warm-up too short") && !strings.Contains(f, "climbs") {
					t.Errorf("%s traced=%v: %s", cfg.Name, traced, f)
				}
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", cfg.Name, traced, len(rec.Result.Metrics), len(defs))
			}
		}
	}
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, registry %v", names, want)
	}
	for _, c := range []struct {
		got  []benchMetric
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, registry %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			d := c.want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %s/%s/%s, registry %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
}
