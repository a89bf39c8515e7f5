package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"time"
)

// Repetition counts: a run repeats its workload until the timed windows add
// up to the requested seconds, but never fewer than these.
const (
	minReps       = 3  // untraced repetitions, for a median
	minTracedReps = 2  // profiled repetitions
	minSetups     = 31 // set-up samples behind setup_s
	// setupsPerRep is how many set-ups an untraced run times per
	// repetition, its own included. Timing the extra ones between the
	// repetitions spreads setup_s's samples over the whole run instead of
	// one stretch of it, in which the shared host may be slow or fast.
	setupsPerRep = 3
)

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is a result with everything needed to compare it later: what ran,
// with which inputs, on which host and build.
type record struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Trace      int         `json:"trace"`
	ConfigHash string      `json:"config_hash"`
	Host       fingerprint `json:"host"`
	Failures   []string    `json:"failures,omitempty"`
	Result     result      `json:"result"`
}

// runWorkload runs cfg for the given seed: untraced it reports the
// end-to-end metrics, traced the per-layer ones. Progress goes to log.
func runWorkload(cfg config, seed int64, seconds float64, traced bool, log io.Writer) (*record, error) {
	rec := &record{Workload: cfg.Name, Seed: seed, ConfigHash: configHash(cfg), Host: hostFingerprint()}
	in := generate(cfg, seed) // before anything is timed
	budget := time.Duration(seconds * float64(time.Second))

	var all, timedReps []*rep // every repetition; those whose host times compare
	var vals map[string]float64
	var defs []metricDef
	if !traced {
		ref, err := newRefLoop()
		if err != nil {
			return nil, err
		}
		defer ref.close()
		ref.sample()
		var reps []*rep
		var setups []time.Duration
		var timed time.Duration
		for len(reps) < minReps || timed < budget {
			r, err := runRep(cfg, in, repMode{})
			if err != nil {
				return nil, err
			}
			logRep(log, "rep", len(reps)+1, r)
			reps = append(reps, r)
			timed += r.wall
			setups = append(setups, r.setup)
			ref.sample()
			for i := 1; i < setupsPerRep; i++ {
				s, err := timeSetup(cfg)
				if err != nil {
					return nil, err
				}
				setups = append(setups, s)
				ref.sample()
			}
		}
		for len(setups) < minSetups {
			s, err := timeSetup(cfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		fmt.Fprintf(log, "host reference loop: %.2f ns/iteration over %d iterations\n", ref.nsPerIter(), ref.iters)
		all, timedReps, defs, vals = reps, reps, endToEnd, endToEndMetrics(reps, setups, ref.nsPerIter())
	} else {
		rec.Trace = 1
		ref, err := runRep(cfg, in, repMode{})
		if err != nil {
			return nil, err
		}
		logRep(log, "untraced", 1, ref)
		cpu := map[string]int64{}
		var reps []*rep
		var timed time.Duration
		for len(reps) < minTracedReps || timed < budget {
			var prof bytes.Buffer
			r, err := runRep(cfg, in, repMode{spans: true, cpu: &prof})
			if err != nil {
				return nil, err
			}
			p, err := parseCPUProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			p.attribute(cpu)
			logRep(log, "traced", len(reps)+1, r)
			reps = append(reps, r)
			timed += r.wall
		}
		alloc, err := runRep(cfg, in, repMode{alloc: true})
		if err != nil {
			return nil, err
		}
		logRep(log, "allocs", 1, alloc)
		all, timedReps = append(append([]*rep{ref}, reps...), alloc), reps
		defs, vals = perLayer, perLayerMetrics(ref, reps, cpu, alloc)
	}

	rec.Result.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		rec.Result.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for i, r := range all {
		rec.Result.Attempted += r.sum.Offered
		rec.Result.Failed += r.failed
		for _, f := range r.failures {
			rec.Failures = append(rec.Failures, fmt.Sprintf("repetition %d: %s", i+1, f))
		}
		if r.sum != all[0].sum {
			rec.Failures = append(rec.Failures, fmt.Sprintf("repetition %d: simulated summary %+v differs from repetition 1's %+v", i+1, r.sum, all[0].sum))
		}
	}
	logSummary(log, all[0])
	rec.Failures = append(rec.Failures, steadyState(timedReps)...)
	rec.Result.Correct = len(rec.Failures) == 0
	return rec, nil
}

// timeSetup builds cfg's world once, as a repetition does, and returns the
// CPU time the build took.
func timeSetup(cfg config) (time.Duration, error) {
	debug.FreeOSMemory() // as before every repetition's set-up
	t0 := processCPU()
	if _, err := build(cfg, &setupSpans{}); err != nil {
		return 0, err
	}
	return processCPU() - t0, nil
}

func logRep(w io.Writer, kind string, i int, r *rep) {
	fmt.Fprintf(w, "%s %d: setup %.2f ms CPU, window %d pkts in %.3f s wall = %.1f ns/pkt wall, %.1f ns/pkt CPU, %.2f allocs/pkt, delivered %d, failed %d\n",
		kind, i, float64(r.setup.Microseconds())/1e3, r.pkts, r.wall.Seconds(), nsPer(r.wall, r.pkts), nsPer(r.cpu, r.pkts),
		ratio(float64(r.allocs), float64(r.pkts)), r.sum.Delivered, r.failed)
}

// logSummary prints a repetition's simulated outcome.
func logSummary(w io.Writer, r *rep) {
	s := r.sum
	fmt.Fprintf(w, "simulated: offered %d, delivered %d, echoed %d, slow path %d, latency p50 %.3f us p99 %.3f us over %d window samples, %d events",
		s.Offered, s.Delivered, s.Echo, s.SlowPath, float64(s.LatP50)/1e6, float64(s.LatP99)/1e6, s.LatSamples, s.Events)
	for i, d := range s.Drops {
		if d > 0 {
			fmt.Fprintf(w, ", %s %d", dropNames[i], d)
		}
	}
	fmt.Fprintln(w)
}

// Steady-state thresholds. An open-loop backlog hides in the engine queue
// with no drop counter, so a growing queue, a per-packet cost that climbs
// through the window, or a window that starts before the caches are warm
// each fail the run.
const (
	backlogGrowth = 2.0  // last-quarter mean pending over first-quarter mean
	backlogSlack  = 64   // events of pending noise always tolerated
	cpuGrowth     = 1.5  // last-third median CPU ns/pkt over first-third median
	fillTolerance = 0.02 // first-slice cache ratios vs the whole window's
)

// steadyState checks the timed windows of a run's repetitions for an
// upward trend in Engine.Pending (simulated, identical in every
// repetition) and in per-slice CPU ns/packet (the median over
// repetitions), and checks that the first slice's flow-cache hit ratio and
// DMA miss ratio already match the window's.
func steadyState(reps []*rep) []string {
	var out []string
	s := reps[0].slices
	k := len(s)
	q := max(1, k/4)
	var first, last float64
	for i := 0; i < q; i++ {
		first += float64(s[i].pending) / float64(q)
		last += float64(s[k-q+i].pending) / float64(q)
	}
	if last > backlogGrowth*first+backlogSlack {
		out = append(out, fmt.Sprintf("engine backlog grows across the window: %.0f pending events in the first quarter, %.0f in the last", first, last))
	}

	perSlice := make([]float64, k)
	for i := range perSlice {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, nsPer(r.slices[i].cpu, r.slices[i].pkts))
		}
		perSlice[i] = median(xs)
	}
	t := max(1, k/3)
	if a, b := median(perSlice[:t]), median(perSlice[k-t:]); b > cpuGrowth*a {
		out = append(out, fmt.Sprintf("CPU time per packet climbs across the window: %.0f ns in the first third, %.0f ns in the last", a, b))
	}

	r := reps[0]
	d0 := r.slices[0].c.sub(r.start)
	if h0, hw := ratio(float64(d0.fcHits), float64(d0.fcHits+d0.fcMisses)), ratio(float64(r.win.fcHits), float64(r.win.fcHits+r.win.fcMisses)); math.Abs(h0-hw) > fillTolerance {
		out = append(out, fmt.Sprintf("warm-up too short: flow-cache hit ratio %.3f in the first slice, %.3f over the window", h0, hw))
	}
	if m0, mw := ratio(float64(d0.dmaMiss), float64(d0.dmaMiss+d0.dmaHits)), ratio(float64(r.win.dmaMiss), float64(r.win.dmaMiss+r.win.dmaHits)); math.Abs(m0-mw) > fillTolerance {
		out = append(out, fmt.Sprintf("warm-up too short: DMA miss ratio %.3f in the first slice, %.3f over the window", m0, mw))
	}
	return out
}
