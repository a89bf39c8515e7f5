package main

import "time"

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesRegistry).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// exact marks a simulated quantity: for a given seed it repeats to the
	// last digit, and only a declared model change may move it.
	exact bool
}

// endToEnd are measured with tracing off.
var endToEnd = []metricDef{
	{"cpu_refiters_per_pkt", "refiter", "lower", false},
	{"allocs_per_pkt", "count", "lower", false},
	{"alloc_bytes_per_pkt", "B", "lower", false},
	{"heap_peak_mb", "MB", "lower", false},
	{"setup_s", "s", "lower", false},
	{"sim_delivered_frac", "ratio", "higher", true},
	{"sim_lat_p50_us", "us", "lower", true},
	{"sim_lat_p99_us", "us", "lower", true},
}

// selfLayers partition the traced run's CPU samples; their self times sum
// to the traced CPU time per packet. nic.flowcache and nic.tenant are
// reported besides, as parts of nic.
var selfLayers = []string{
	"sim", "nic", "overlay", "cache", "mem", "arch", "packet", "qos", "kernel",
	layerAlloc, layerGC, layerBench, layerOther,
}

// allocLayers are the allocation sites reported per packet.
var allocLayers = []string{"packet", "nic", "arch", "sim", "mem", "overlay", "qos", "kernel", layerBench, layerOther}

// perLayer are measured in the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.cpu_ns_per_pkt", "ns", "lower", false},
		{"host.wall_ns_per_pkt", "ns", "lower", false},
		{"sim.events_per_pkt", "count", "lower", true},
		{"sim.pending_peak", "count", "lower", true},
		{"sim.lat_samples", "count", "higher", true},
		{"runtime.gc_cycles_per_mpkt", "count", "lower", false},
		{"nic.flowcache.self_ns_per_pkt", "ns", "lower", false},
		{"nic.tenant.self_ns_per_pkt", "ns", "lower", false},
		{"nic.fc_hit_ratio", "ratio", "higher", true},
		{"nic.fc_installs_per_pkt", "count", "lower", true},
		{"nic.fc_evictions_per_pkt", "count", "lower", true},
		{"nic.slowpath_frac", "ratio", "lower", true},
		{"overlay.cycles_per_pkt", "count", "lower", true},
		{"cache.dma_miss_ratio", "ratio", "lower", true},
		{"cache.cpu_miss_ratio", "ratio", "lower", true},
		{"qos.backlog_peak", "count", "lower", true},
		{"kernel.wakes_per_pkt", "count", "lower", true},
		{"span.setup.world_ms", "ms", "lower", false},
		{"span.setup.connect_us_per_conn", "us", "lower", false},
		{"span.setup.config_ms", "ms", "lower", false},
		{"span.inject_ns_per_pkt", "ns", "lower", false},
		{"span.run_ns_per_pkt", "ns", "lower", false},
		{"span.deliver_ns_per_pkt", "ns", "lower", false},
		{"bench.trace_overhead_frac", "ratio", "lower", false},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{selfName(l), "ns", "lower", false})
	}
	for _, l := range allocLayers {
		defs = append(defs, metricDef{l + ".allocs_per_pkt", "count", "lower", false})
	}
	for _, d := range dropNames {
		defs = append(defs, metricDef{"nic.drop_frac." + d, "ratio", "lower", true})
	}
	return defs
}()

func selfName(layer string) string { return layer + ".self_ns_per_pkt" }

// metricByName finds a metric in either list.
func metricByName(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nsPer(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }

// endToEndMetrics computes the untraced run's metrics from its
// repetitions, set-up samples and the host reference loop's CPU time per
// iteration.
func endToEndMetrics(reps []*rep, setups []time.Duration, refNs float64) map[string]float64 {
	var cpu time.Duration
	var pkts int
	var allocs, bytes, heap []float64
	for _, r := range reps {
		cpu += r.cpu
		pkts += r.pkts
		allocs = append(allocs, ratio(float64(r.allocs), float64(r.pkts)))
		bytes = append(bytes, ratio(float64(r.bytes), float64(r.pkts)))
		heap = append(heap, float64(r.heap)/1e6)
	}
	var setup []float64
	for _, s := range setups {
		setup = append(setup, s.Seconds())
	}
	s := reps[0].sum
	return map[string]float64{
		// Every window's CPU time over every window's packets, not the
		// median repetition: the shared host's speed drifts over seconds,
		// and a median follows whichever speed held most repetitions.
		// Dividing by the reference loop (refloop.go) takes out the drift
		// over minutes.
		"cpu_refiters_per_pkt": ratio(nsPer(cpu, pkts), refNs),
		"allocs_per_pkt":       median(allocs),
		"alloc_bytes_per_pkt":  median(bytes),
		"heap_peak_mb":         median(heap),
		"setup_s":              median(setup),
		"sim_delivered_frac":   ratio(float64(s.LatSamples), float64(reps[0].pkts)),
		"sim_lat_p50_us":       float64(s.LatP50) / 1e6,
		"sim_lat_p99_us":       float64(s.LatP99) / 1e6,
	}
}

// perLayerMetrics computes the traced run's metrics: counters from the
// untraced reference repetition, spans and CPU attribution from the traced
// ones, allocation sites from the allocation pass.
func perLayerMetrics(ref *rep, traced []*rep, samples map[string]int64, alloc *rep) map[string]float64 {
	m := map[string]float64{}
	pk := float64(ref.pkts)
	c := ref.win
	per := func(v uint64) float64 { return ratio(float64(v), pk) }

	var pending int
	for _, s := range ref.slices {
		pending = max(pending, s.pending)
	}
	m["sim.events_per_pkt"] = per(c.events)
	m["sim.pending_peak"] = float64(pending)
	m["sim.lat_samples"] = float64(ref.sum.LatSamples)
	m["runtime.gc_cycles_per_mpkt"] = per(ref.gcs) * 1e6
	m["nic.fc_hit_ratio"] = ratio(float64(c.fcHits), float64(c.fcHits+c.fcMisses))
	m["nic.fc_installs_per_pkt"] = per(c.fcInstalls)
	m["nic.fc_evictions_per_pkt"] = per(c.fcEvict)
	m["nic.slowpath_frac"] = per(c.slowPath) // frames punted to the kernel (RxSlowPath)
	m["overlay.cycles_per_pkt"] = per(c.progCycles)
	m["cache.dma_miss_ratio"] = ratio(float64(c.dmaMiss), float64(c.dmaMiss+c.dmaHits))
	m["cache.cpu_miss_ratio"] = ratio(float64(c.cpuMisses), float64(c.cpuMisses+c.cpuHits))
	m["kernel.wakes_per_pkt"] = per(c.kernJobs)
	for i, d := range dropNames {
		m["nic.drop_frac."+d] = per(c.drops[i])
	}

	var world, connect, config, inject, run, deliver, cpu []float64
	var qosPeak int
	for _, r := range traced {
		world = append(world, float64(r.sp.world.Nanoseconds())/1e6)
		connect = append(connect, ratio(float64(r.sp.connect.Nanoseconds())/1e3, float64(r.sp.conns)))
		config = append(config, float64(r.sp.config.Nanoseconds())/1e6)
		inject = append(inject, nsPer(r.inject, r.pkts))
		run = append(run, nsPer(r.run, r.pkts))
		deliver = append(deliver, nsPer(r.deliver, r.pkts))
		cpu = append(cpu, nsPer(r.cpu, r.pkts))
		qosPeak = max(qosPeak, r.qosPeak)
	}
	m["span.setup.world_ms"] = median(world)
	m["span.setup.connect_us_per_conn"] = median(connect)
	m["span.setup.config_ms"] = median(config)
	m["span.inject_ns_per_pkt"] = median(inject)
	m["span.run_ns_per_pkt"] = median(run)
	m["span.deliver_ns_per_pkt"] = median(deliver)
	m["qos.backlog_peak"] = float64(qosPeak)
	tracedCPU := median(cpu)
	m["bench.trace_overhead_frac"] = tracedCPU/nsPer(ref.cpu, ref.pkts) - 1
	m["host.cpu_ns_per_pkt"] = nsPer(ref.cpu, ref.pkts)
	m["host.wall_ns_per_pkt"] = nsPer(ref.wall, ref.pkts)

	for l, v := range selfTimes(samples, tracedCPU) {
		m[selfName(l)] = v
	}
	for _, l := range allocLayers {
		m[l+".allocs_per_pkt"] = ratio(float64(alloc.allocSites[l]), float64(alloc.allocPkts))
	}
	return m
}

// selfTimes splits CPU ns/packet across layers in proportion to their CPU
// samples. Layers of selfLayers partition the samples — anything outside
// them is other — so the partition sums to perPkt; the NIC's sub-layers
// are added besides.
func selfTimes(cpu map[string]int64, perPkt float64) map[string]float64 {
	var total int64
	folded := map[string]int64{}
	known := map[string]bool{}
	for _, l := range selfLayers {
		known[l] = true
	}
	for l, v := range cpu {
		total += v
		p := parentLayer(l)
		if !known[p] {
			p = layerOther
		}
		folded[p] += v
	}
	out := map[string]float64{}
	for _, l := range selfLayers {
		out[l] = ratio(float64(folded[l]), float64(total)) * perPkt
	}
	for _, l := range []string{"nic.flowcache", "nic.tenant"} {
		out[l] = ratio(float64(cpu[l]), float64(total)) * perPkt
	}
	return out
}
