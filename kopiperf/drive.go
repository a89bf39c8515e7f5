package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"norman/internal/arch"
	"norman/internal/packet"
	"norman/internal/sim"
)

// dropNames are the program's public drop counters, receive side then
// transmit side. Per-tenant FIFO drops are a breakdown of rx_fifo, not a
// reason of their own, so they are checked against it instead of summed.
var dropNames = [...]string{
	"rx_no_steer", "rx_ring", "rx_fifo", "rx_verdict", "rx_outage", "rx_shed", "rx_link", "rx_pause",
	"tx_app", "tx_verdict", "tx_outage", "tx_qdisc",
}

// firstTxDrop is the index of the first transmit-side entry of dropNames.
const firstTxDrop = 8

type dropVec [len(dropNames)]uint64

func (d dropVec) sum(lo, hi int) uint64 {
	var s uint64
	for _, v := range d[lo:hi] {
		s += v
	}
	return s
}

// counters is a snapshot of the program's public counters; the per-layer
// count metrics are window deltas of it.
type counters struct {
	events                                uint64
	fcHits, fcMisses, fcInstalls, fcEvict uint64
	cpuHits, cpuMisses, dmaHits, dmaMiss  uint64
	progCycles                            uint64
	rxWire, slowPath, txFrames            uint64
	kernJobs                              uint64
	drops                                 dropVec
}

func snapshot(wd *world) counters {
	w, n := wd.w, wd.w.NIC
	c := counters{
		events:     w.Eng.Fired(),
		progCycles: n.IngressProgCycles,
		rxWire:     n.RxWire,
		slowPath:   n.RxSlowPath,
		txFrames:   n.TxFrames,
		kernJobs:   w.KernCore().Jobs(),
	}
	if f := n.FlowCache(); f != nil {
		c.fcHits, c.fcMisses, c.fcInstalls, c.fcEvict = f.Hits, f.Misses, f.Installs, f.Evictions
	}
	if w.LLC != nil {
		c.cpuHits, c.cpuMisses, c.dmaHits, c.dmaMiss = w.LLC.Stats()
	}
	var qdrop uint64
	if wd.qdisc != nil {
		qdrop = wd.qdisc.Stats().DropPackets
	}
	c.drops = dropVec{n.RxDropNoSteer, n.RxDropRing, n.RxFifoDrop, n.RxDropVerdict, n.RxOutageDrop,
		n.RxShed, n.RxLinkDrop, n.RxPauseDrop, wd.a.TxAppDrops, n.TxDropVerdict, n.TxOutageDrop, qdrop}
	return c
}

// sub returns the counter deltas c − o.
func (c counters) sub(o counters) counters {
	d := counters{
		events: c.events - o.events, fcHits: c.fcHits - o.fcHits, fcMisses: c.fcMisses - o.fcMisses,
		fcInstalls: c.fcInstalls - o.fcInstalls, fcEvict: c.fcEvict - o.fcEvict,
		cpuHits: c.cpuHits - o.cpuHits, cpuMisses: c.cpuMisses - o.cpuMisses,
		dmaHits: c.dmaHits - o.dmaHits, dmaMiss: c.dmaMiss - o.dmaMiss,
		progCycles: c.progCycles - o.progCycles, rxWire: c.rxWire - o.rxWire,
		slowPath: c.slowPath - o.slowPath, txFrames: c.txFrames - o.txFrames, kernJobs: c.kernJobs - o.kernJobs,
	}
	for i := range d.drops {
		d.drops[i] = c.drops[i] - o.drops[i]
	}
	return d
}

// summary is a repetition's simulated outcome. It depends only on the
// workload and seed, so every repetition of a run — traced or not — must
// produce an identical one.
type summary struct {
	Offered, Delivered        uint64
	Drops                     dropVec
	SlowPath, TxFrames, Echo  uint64
	LatP50, LatP99            sim.Duration
	LatSamples                int
	FCHits, DMAMisses, Events uint64
}

// sliceStat is measured at the end of each virtual-time slice of the window.
type sliceStat struct {
	cpu     time.Duration // process CPU time the slice took
	pkts    int
	pending int // Engine.Pending at the slice boundary
	c       counters
}

// repMode selects what a repetition records besides the untraced timing.
type repMode struct {
	spans bool      // time every call into the program (the traced run)
	cpu   io.Writer // CPU profile of the timed window, nil for none
	alloc bool      // diff the allocation profile across the timed window
}

// rep is one repetition: set-up, untimed warm-up, timed window, untimed
// drain, output check.
type rep struct {
	setup   time.Duration // process CPU time of the set-up
	sp      setupSpans
	wall    time.Duration // the timed window
	cpu     time.Duration // process CPU time over the window
	pkts    int           // packets offered in the window
	allocs  uint64
	bytes   uint64
	gcs     uint64
	heap    uint64 // peak /gc/heap/live:bytes over the slice boundaries
	slices  []sliceStat
	start   counters // at the window's start
	win     counters // window deltas
	qosPeak int      // DRR backlog peak sampled at each SendBatch (spans only)

	inject, run, deliver time.Duration // spans around calls into the program

	allocSites map[string]uint64 // allocated objects per layer over the first slice (alloc mode)
	allocPkts  int               // packets offered in that slice

	last time.Time // end of the previous span (spans mode)

	sum      summary
	failed   uint64
	failures []string
}

// receiver is the application upcall: it checks every delivery against the
// offer it came from and records the virtual latency of window packets.
type receiver struct {
	in        *input
	conns     []*arch.Conn
	seen      []bool
	lat       []sim.Duration
	delivered uint64
	bad       uint64
	spans     bool
	span      time.Duration
}

func (r *receiver) deliver(c *arch.Conn, p *packet.Packet, at sim.Time) {
	var t0 time.Time
	if r.spans {
		t0 = time.Now()
	}
	id := int(p.Meta.Trace) - 1
	if id < 0 || id >= r.in.end || r.seen[id] || r.conns[r.in.offers[id].flow] != c {
		r.bad++ // untagged, duplicated or misdelivered
	} else {
		r.seen[id] = true
		r.delivered++
		if id >= r.in.warm {
			r.lat = append(r.lat, at.Sub(r.in.offers[id].at))
		}
	}
	if r.spans {
		r.span += time.Since(t0)
	}
}

// runtime/metrics the repetition reads; rtLive is sampled per slice.
const (
	rtAllocs = iota
	rtBytes
	rtCycles
	rtLive
)

func newRuntimeSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
}

// processCPU is the process's user plus system CPU time, every thread
// included, so the garbage collector's background work counts. Time the
// hypervisor steals from the guest is not CPU time, which is why the
// benchmark's gated time metrics use it instead of wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuHz is the CPU profile's sampling rate.
const cpuHz = 1000

// slices is how many virtual-time slices the timed window is split into;
// the steady-state guard compares its first and last quarters and thirds.
const slices = 16

// runRep executes one repetition of cfg over the pre-generated input.
func runRep(cfg config, in *input, mode repMode) (*rep, error) {
	// Collect the previous repetition's world and return its memory to the
	// OS, so every set-up starts on fresh pages, as in a new process,
	// instead of sometimes reusing pages the scavenger has not released
	// yet, which made set-up time bimodal.
	debug.FreeOSMemory()
	r := &rep{sp: setupSpans{on: mode.spans}}
	t0 := processCPU()
	wd, err := build(cfg, &r.sp)
	r.setup = processCPU() - t0
	if err != nil {
		return nil, err
	}
	rc := &receiver{in: in, conns: wd.conns, seen: make([]bool, in.end),
		lat: make([]sim.Duration, 0, in.end-in.warm), spans: mode.spans}
	wd.a.SetDeliver(rc.deliver)
	eng := wd.w.Eng

	// Warm-up: fills the flow cache, the LLC model and the Go heap. The
	// allocation pass records every allocation from the warm-up's last
	// twentieth through the window's first slice: switching the rate on
	// early lets each allocator cache's pending sampling distance run out
	// before the profiled slice begins.
	memRate := runtime.MemProfileRate
	prime := in.warm
	if mode.alloc {
		prime -= in.warm / 20
		for prime > 0 && in.offers[prime].at == in.offers[prime-1].at {
			prime++ // never split an echo batch
		}
	}
	r.offer(cfg, wd, in, 0, prime, false)
	if mode.alloc {
		runtime.MemProfileRate = 1
	}
	r.offer(cfg, wd, in, prime, in.warm, false)
	t0w, t1w := in.offers[in.warm].at, in.offers[in.end].at
	eng.RunUntil(t0w)

	rt := newRuntimeSamples()
	var before map[[32]uintptr]uint64
	if mode.alloc {
		before = memProfile()
	}
	metrics.Read(rt)
	a0, b0, g0 := rt[rtAllocs].Value.Uint64(), rt[rtBytes].Value.Uint64(), rt[rtCycles].Value.Uint64()
	r.start = snapshot(wd)
	if mode.cpu != nil {
		// pprof samples at 100 Hz unless the rate is set first; its own
		// attempt to set 100 Hz then fails with a warning and leaves ours.
		runtime.SetCPUProfileRate(cpuHz)
		if err := pprof.StartCPUProfile(mode.cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}

	r.slices = make([]sliceStat, slices)
	rc.span = 0 // deliveries during the warm-up are not the window's
	lo := in.warm
	cpu0 := processCPU()
	start := time.Now()
	lastCPU := cpu0
	r.last = start
	for k := range r.slices {
		bound := t0w + sim.Time(int64(t1w-t0w)*int64(k+1)/slices)
		hi := lo + sort.Search(in.end-lo, func(i int) bool { return in.offers[lo+i].at >= bound })
		r.offer(cfg, wd, in, lo, hi, mode.spans)
		eng.RunUntil(bound)
		now, nowCPU := time.Now(), processCPU()
		if mode.spans {
			r.run += now.Sub(r.last)
		}
		metrics.Read(rt)
		r.slices[k] = sliceStat{cpu: nowCPU - lastCPU, pkts: hi - lo, pending: eng.Pending(), c: snapshot(wd)}
		r.heap = max(r.heap, rt[rtLive].Value.Uint64())
		if mode.alloc && k == 0 {
			r.allocSites = attributeAllocs(before, memProfile())
			r.allocPkts = hi - lo
			runtime.MemProfileRate = memRate
		}
		lastCPU, lo = nowCPU, hi
		if mode.spans {
			r.last = time.Now() // the slice bookkeeping above is the benchmark's
		}
	}
	r.wall = time.Since(start)
	r.cpu = processCPU() - cpu0
	if mode.cpu != nil {
		pprof.StopCPUProfile()
	}
	metrics.Read(rt)
	r.allocs = rt[rtAllocs].Value.Uint64() - a0
	r.bytes = rt[rtBytes].Value.Uint64() - b0
	r.gcs = rt[rtCycles].Value.Uint64() - g0
	r.win = r.slices[len(r.slices)-1].c.sub(r.start)
	r.pkts = in.end - in.warm
	r.deliver = rc.span

	// Drain: run the engine dry so every offered packet reaches its end.
	eng.Run()
	r.check(cfg, wd, in, rc)
	return r, nil
}

// offer feeds offers [lo, hi) to the world at their virtual times: frames
// from the wire through DeliverWire, or app datagrams through SendBatch,
// one batch per run of offers sharing a time and flow. With spans on, one
// clock reading between consecutive calls closes one span and opens the
// next, so the time in the engine and the time in the injection calls add
// up to the loop's time.
func (r *rep) offer(cfg config, wd *world, in *input, lo, hi int, spans bool) {
	eng, w, a := wd.w.Eng, wd.w, wd.a
	var batch []*packet.Packet
	for i := lo; i < hi; {
		o := in.offers[i]
		eng.RunUntil(o.at)
		if spans {
			r.lap(&r.run)
		}
		if !cfg.Echo {
			p := w.UDPFrom(wd.flows[o.flow], int(o.size))
			p.Meta.Trace = uint64(i) + 1
			a.DeliverWire(p)
			i++
		} else {
			batch = batch[:0]
			for ; i < hi && in.offers[i].at == o.at && in.offers[i].flow == o.flow; i++ {
				p := w.UDPTo(wd.flows[o.flow], int(in.offers[i].size))
				p.Meta.Trace = uint64(i) + 1
				batch = append(batch, p)
			}
			a.SendBatch(wd.conns[o.flow], batch)
		}
		if spans {
			r.lap(&r.inject)
			if wd.qdisc != nil {
				r.qosPeak = max(r.qosPeak, wd.qdisc.Len())
			}
		}
	}
}

// lap charges the time since the previous lap to *d.
func (r *rep) lap(d *time.Duration) {
	now := time.Now()
	*d += now.Sub(r.last)
	r.last = now
}

// check is the output check after the drain: every offered packet is
// delivered exactly once to its own connection or counted under exactly one
// named drop reason, for the receive and (on echo) the transmit side.
// Packets the ledger cannot place are the repetition's failed operations.
func (r *rep) check(cfg config, wd *world, in *input, rc *receiver) {
	n := wd.w.NIC
	c := snapshot(wd)
	for _, g := range ledgerGaps(cfg.Echo, uint64(in.end), rc.delivered, wd.peerRx, c) {
		r.failed += uint64(max(g.n, -g.n))
		r.failures = append(r.failures, fmt.Sprintf("%s ledger off by %d", g.what, g.n))
	}
	if rc.bad > 0 {
		r.failed += rc.bad
		r.failures = append(r.failures, fmt.Sprintf("%d deliveries untagged, duplicated or on the wrong connection", rc.bad))
	}
	if ts := n.TenantScheduler(); ts != nil {
		var perTenant uint64
		for _, s := range ts.Stats() {
			perTenant += s.RxFifoDrops
		}
		if perTenant != n.RxFifoDrop {
			r.failures = append(r.failures, fmt.Sprintf("tenant FIFO drops %d do not break down RxFifoDrop %d", perTenant, n.RxFifoDrop))
		}
	}
	if p := wd.w.Eng.Pending(); p != 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d events left after the drain", p))
	}

	lat := rc.lat
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.sum = summary{
		Offered: uint64(in.end), Delivered: rc.delivered, Drops: c.drops,
		SlowPath: c.slowPath, TxFrames: c.txFrames, Echo: wd.peerRx,
		LatP50: quantileDur(lat, 0.50), LatP99: quantileDur(lat, 0.99), LatSamples: len(lat),
		FCHits: c.fcHits, DMAMisses: c.dmaMiss, Events: c.events,
	}
}

// gap is a ledger line that does not balance: n packets more went in than
// came out (negative: more came out).
type gap struct {
	what string
	n    int64
}

// ledgerGaps balances the drained world's counters against the offered
// load, exactly. Receive: what reached the NIC is delivered, punted or
// dropped under one named reason. Echo adds the transmit side — what the
// apps sent left on the wire or was dropped — and the wire between the two.
func ledgerGaps(echo bool, offered, delivered, echoed uint64, c counters) []gap {
	var gaps []gap
	add := func(what string, n int64) {
		if n != 0 {
			gaps = append(gaps, gap{what, n})
		}
	}
	rxOffered := offered
	if echo {
		add("tx", int64(offered)-int64(c.txFrames+c.drops.sum(firstTxDrop, len(dropNames))))
		add("wire tx", int64(c.txFrames)-int64(echoed))
		rxOffered = echoed
	}
	add("wire rx", int64(rxOffered)-int64(c.rxWire))
	add("rx", int64(rxOffered)-int64(delivered+c.drops.sum(0, firstTxDrop)+c.slowPath))
	return gaps
}

// quantileDur is the nearest-rank q-quantile of sorted durations.
func quantileDur(sorted []sim.Duration, q float64) sim.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
