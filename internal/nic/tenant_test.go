package nic

import (
	"reflect"
	"testing"

	"norman/internal/mem"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

// tenantFlow is the kernel-side (local) flow the NIC steers on; inbound
// frames built by tenantUDP arrive with the tuple reversed.
func tenantFlow(dport uint16) packet.FlowKey {
	return packet.FlowKey{Src: packet.MakeIP(10, 0, 0, 1), Dst: packet.MakeIP(10, 0, 0, 2),
		SrcPort: dport, DstPort: 99, Proto: packet.ProtoUDP}
}

func tenantUDP(dport uint16) *packet.Packet {
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, packet.MakeIP(10, 0, 0, 2),
		packet.MakeIP(10, 0, 0, 1), 99, dport, 1460)
}

// tenantWorld builds a NIC with the tenant scheduler installed and one
// steered connection per listed tenant (conn id = tenant id).
func tenantWorld(t *testing.T, weights map[uint32]int, tenants ...uint32) (*NIC, *sim.Engine) {
	t.Helper()
	n, eng := newNIC(1 << 20)
	n.SetTenantScheduler(weights)
	for _, id := range tenants {
		if _, err := n.OpenConn(uint64(id), packet.Meta{UID: id, Tenant: id, TrustedMeta: true}, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.SteerFlow(tenantFlow(uint16(5000+id)), uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	return n, eng
}

// offer injects count 1502B frames for each listed tenant, interleaved at
// the given spacing — well above the pipeline's ~60ns/frame service rate, so
// every tenant keeps a standing backlog and the DRR's shares are observable.
func offer(n *NIC, eng *sim.Engine, count int, spacing sim.Duration, tenants ...uint32) {
	for i := 0; i < count; i++ {
		at := sim.Time(sim.Duration(i) * spacing)
		for _, id := range tenants {
			id := id
			eng.At(at, func() { n.rxFrame(tenantUDP(uint16(5000 + id))) })
		}
	}
}

// TestTenantSchedulerWeightRatio drives two tenants into sustained ingress
// overload and checks that the pipeline's grant split tracks the configured
// 7:1 weights. The property needs RX-driven backlog: offered load must
// exceed service capacity, or the queues drain each round and DRR degenerates
// to FIFO alternation regardless of weights.
func TestTenantSchedulerWeightRatio(t *testing.T) {
	n, eng := tenantWorld(t, map[uint32]int{1: 7, 2: 1}, 1, 2)
	offer(n, eng, 20000, 30*sim.Nanosecond, 1, 2)
	eng.Run()

	ts := n.TenantScheduler()
	g1 := ts.statsFor(1).PipeGrants
	g2 := ts.statsFor(2).PipeGrants
	if g1 == 0 || g2 == 0 {
		t.Fatalf("both tenants must be served: %d/%d", g1, g2)
	}
	ratio := float64(g1) / float64(g2)
	if ratio < 6 || ratio > 8 {
		t.Fatalf("grant ratio %.2f (g1=%d g2=%d), want ~7 from the 7:1 weights", ratio, g1, g2)
	}
	// Equal frame sizes, so occupancy must track grants.
	wr := float64(ts.statsFor(1).PipeWork) / float64(ts.statsFor(2).PipeWork)
	if wr < 6 || wr > 8 {
		t.Fatalf("work ratio %.2f, want ~7", wr)
	}
}

// unsteeredFor builds an inbound frame no steering rule matches, attributed
// to tenant: as a reqRxPipe grant with no program, no slow path and no
// connection, its continuation only counts one RxDropNoSteer and schedules
// nothing, so the DRR tests below observe the scheduler alone and count
// served grants in the NIC's own ledger.
func unsteeredFor(tenant uint32) *packet.Packet {
	p := udpTo(9)
	p.Meta.Tenant = tenant
	return p
}

// requestUnsteered queues one unsteered pipeline grant on d, taking the FIFO
// slot admission would have taken so the continuation's release balances.
func requestUnsteered(n *NIC, d *TenantDRR, p *packet.Packet) {
	n.rxInflight++
	d.Request(grant{kind: reqRxPipe, p: p, frame: p.FrameLen()})
}

// TestTenantDRRWorkConserving pins the memoryless-deficit property: an idle
// tenant reserves nothing. Tenant 1 (weight 1) shares the scheduler with an
// idle tenant of weight 7; a strict time-partition would leave the server
// idle 7/8 of the time, DRR must run tenant 1's backlog back to back — the
// virtual clock at drain equals exactly requests × occupancy.
func TestTenantDRRWorkConserving(t *testing.T) {
	n, eng := newNIC(1 << 20)
	p := unsteeredFor(1)
	srv := sim.NewServer("wc.pipe")
	d := newTenantDRR(n, srv, map[uint32]int{1: 1, 2: 7}, 100*sim.Nanosecond)
	eng.At(0, func() {
		for i := 0; i < 1000; i++ {
			requestUnsteered(n, d, p)
		}
	})
	eng.Run()
	if served := n.RxDropNoSteer; served != 1000 {
		t.Fatalf("served %d of 1000", served)
	}
	if want := sim.Time(1000 * n.pipeOccupancy(p.FrameLen())); srv.FreeAt() != want {
		t.Fatalf("server busy until %v, want %v — it idled while tenant 1 was backlogged", srv.FreeAt(), want)
	}
}

// datapathOutcome is what one datapath case leaves behind: every drop class
// and the other ledger counters, plus when frames were delivered to a ring,
// transmitted, or punted to the slow path, and when the engine went idle.
type datapathOutcome struct {
	counters           map[string]uint64
	rxAt, txAt, slowAt sim.Time
	end                sim.Time
}

// TestTenantSchedulerUncontendedLatency pins the opt-in contract over every
// ingress and egress outcome: with one uncontended tenant, the scheduled NIC
// runs the same stage continuations at the same instants as the unscheduled
// one, so every counter and every delivery, transmit and punt time match.
func TestTenantSchedulerUncontendedLatency(t *testing.T) {
	const dropT1 = "ldf r0, dst_port\njne r0, 5001, ok\ndrop\nok:\npass\n"
	load := func(t *testing.T, n *NIC, dir Direction, src string) *overlay.Machine {
		t.Helper()
		prog, err := overlay.Assemble("equiv", src)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := n.LoadProgram(dir, prog)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name  string
		want  string // counter the case must move
		rx    []sim.Time
		tx    bool
		dport uint16 // 0 = the steered flow
		setup func(t *testing.T, n *NIC, c *Conn)
	}{
		{name: "delivered", want: "delivered", rx: []sim.Time{0}},
		{name: "ring full", want: "rx_drop_ring", rx: []sim.Time{0}, setup: func(t *testing.T, n *NIC, c *Conn) {
			for !c.RX.Full() {
				if err := c.RX.Push(mem.Desc{Pkt: tenantUDP(5001)}); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "cached verdict drop", want: "flowcache_hits", rx: []sim.Time{0, sim.Time(20 * sim.Microsecond)},
			setup: func(t *testing.T, n *NIC, c *Conn) {
				if err := n.EnableFlowCache(64); err != nil {
					t.Fatal(err)
				}
				load(t, n, Ingress, dropT1)
			}},
		{name: "interpreted verdict drop", want: "rx_drop_verdict", rx: []sim.Time{0},
			setup: func(t *testing.T, n *NIC, c *Conn) { load(t, n, Ingress, dropT1) }},
		{name: "trap fallback", want: "trap_fallbacks", rx: []sim.Time{0},
			setup: func(t *testing.T, n *NIC, c *Conn) { load(t, n, Ingress, "pass\n").InjectTrap("stage fault") }},
		{name: "unsteered to slow path", want: "rx_slow_path", rx: []sim.Time{0}, dport: 6000,
			setup: func(t *testing.T, n *NIC, c *Conn) { n.SlowPath = func(*packet.Packet, sim.Time) {} }},
		{name: "unsteered no steer", want: "rx_drop_nosteer", rx: []sim.Time{0}, dport: 6000},
		{name: "shed", want: "rx_shed", rx: []sim.Time{0}, setup: func(t *testing.T, n *NIC, c *Conn) {
			n.SetShedPolicy(func(*Conn, *packet.Packet) bool { return true })
		}},
		{name: "outage", want: "rx_outage_drop", rx: []sim.Time{0}, setup: func(t *testing.T, n *NIC, c *Conn) {
			n.ReloadBitstream(0, 10*sim.Microsecond)
		}},
		{name: "outage to slow path", want: "rx_slow_path", rx: []sim.Time{0}, setup: func(t *testing.T, n *NIC, c *Conn) {
			n.ReloadBitstream(0, 10*sim.Microsecond)
			n.SlowPath = func(*packet.Packet, sim.Time) {}
		}},
		{name: "egress transmit", want: "tx_frames", tx: true},
		{name: "egress verdict drop", want: "tx_drop_verdict", tx: true,
			setup: func(t *testing.T, n *NIC, c *Conn) { load(t, n, Egress, "drop\n") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sched bool) datapathOutcome {
				n, eng := newNIC(1 << 20)
				if sched {
					n.SetTenantScheduler(map[uint32]int{1: 1})
				}
				c, err := n.OpenConn(1, packet.Meta{UID: 1, Tenant: 1, TrustedMeta: true}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.SteerFlow(tenantFlow(5001), 1); err != nil {
					t.Fatal(err)
				}
				if tc.setup != nil {
					tc.setup(t, n, c)
				}
				var o datapathOutcome
				n.OnRxDeliver = func(_ *Conn, at sim.Time) { o.rxAt = at }
				n.OnTransmit = func(_ *packet.Packet, at sim.Time) { o.txAt = at }
				if slow := n.SlowPath; slow != nil {
					n.SlowPath = func(p *packet.Packet, at sim.Time) { o.slowAt = at; slow(p, at) }
				}
				dport := tc.dport
				if dport == 0 {
					dport = 5001
				}
				for _, at := range tc.rx {
					eng.At(at, func() { n.DeliverFromWire(tenantUDP(dport)) })
				}
				if tc.tx {
					eng.At(0, func() {
						if err := c.TX.Push(mem.Desc{Pkt: udpTo(80)}); err != nil {
							t.Error(err)
						}
						n.DoorbellTx(c)
					})
				}
				o.end = eng.Run()
				o.counters = map[string]uint64{
					"delivered": c.RxDelivered, "rx_slow_path": n.RxSlowPath,
					"tx_frames": n.TxFrames, "trap_fallbacks": n.TrapFallbacks,
				}
				for _, d := range dropClasses {
					o.counters[d.name] = *d.field(n)
				}
				if f := n.FlowCache(); f != nil {
					o.counters["flowcache_hits"] = f.Hits
				}
				return o
			}
			plain, sched := run(false), run(true)
			if plain.counters[tc.want] == 0 {
				t.Fatalf("case never reached its outcome: %s = 0 in %v", tc.want, plain.counters)
			}
			if !reflect.DeepEqual(plain, sched) {
				t.Fatalf("uncontended outcome moved under the scheduler:\nplain %+v\nsched %+v", plain, sched)
			}
		})
	}
}

// TestTenantDRRZeroAlloc pins the per-packet scheduling hot path at zero
// allocations: grant rings and the active ring grow once, then every
// Request → select → serve cycle reuses them.
func TestTenantDRRZeroAlloc(t *testing.T) {
	n, eng := newNIC(1 << 20)
	pa, pb := unsteeredFor(1), unsteeredFor(2)
	d := newTenantDRR(n, sim.NewServer("test.pipe"), map[uint32]int{1: 3, 2: 1}, 100*sim.Nanosecond)
	load := func() {
		for i := 0; i < 64; i++ {
			requestUnsteered(n, d, pa)
			requestUnsteered(n, d, pb)
		}
		eng.Run()
	}
	load() // grow the rings to steady-state size
	if d.Backlog() != 0 {
		t.Fatalf("backlog %d after drain", d.Backlog())
	}
	if allocs := testing.AllocsPerRun(100, load); allocs != 0 {
		t.Fatalf("scheduling hot path allocates %.2f/op", allocs)
	}
	if served := n.RxDropNoSteer; served != 128*102 {
		t.Fatalf("served %d grants, want %d", served, 128*102)
	}
}

// TestTenantFifoDropZeroAlloc pins admission's drop at a full tenant FIFO
// share at zero allocations with tracing off: under a flood this is the
// most frequent ingress outcome, and its trace note must cost nothing
// unless a tracer is installed.
func TestTenantFifoDropZeroAlloc(t *testing.T) {
	n, _ := tenantWorld(t, map[uint32]int{1: 1}, 1)
	r := n.tsched.rxQueue(1)
	r.inflight = r.window // the tenant's FIFO share is full
	p := tenantUDP(5001)
	if allocs := testing.AllocsPerRun(100, func() { n.rxAdmit(p, 0) }); allocs != 0 {
		t.Fatalf("tenant FIFO drop allocates %.2f/op", allocs)
	}
	if n.RxFifoDrop == 0 || n.TenantFifoDrops(1) != n.RxFifoDrop {
		t.Fatalf("drops: global %d, tenant %d", n.RxFifoDrop, n.TenantFifoDrops(1))
	}
}

// BenchmarkTenantDRR measures the scheduled request path under standing
// two-tenant backlog; allocs/op must report 0.
func BenchmarkTenantDRR(b *testing.B) {
	eng := sim.NewEngine()
	n := New(Config{Engine: eng, Model: timing.Default(), SRAMBudget: 1 << 20, RingSize: 8})
	pa, pb := unsteeredFor(1), unsteeredFor(2)
	d := newTenantDRR(n, sim.NewServer("bench.pipe"), map[uint32]int{1: 3, 2: 1}, 100*sim.Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requestUnsteered(n, d, pa)
		requestUnsteered(n, d, pb)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}
