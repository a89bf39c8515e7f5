package nic

import (
	"fmt"
	"math/rand"
	"testing"

	"norman/internal/mem"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
	"norman/internal/timing"
)

// aclSrc is a cacheable ingress/egress program in the shape of E14's ACL:
// a port blocklist, a mark rewrite and a pass.
const aclSrc = "ldf r0, dst_port\njeq r0, 9000, blocked\njeq r0, 9001, blocked\nldi r2, 7\nsetf mark, r2\npass\nblocked:\ndrop\n"

func loadProgram(t testing.TB, n *NIC, dir Direction, src string) {
	t.Helper()
	prog, err := overlay.Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.LoadProgram(dir, prog); err != nil {
		t.Fatal(err)
	}
}

// TestDatapathZeroAlloc pins whole NIC datapath runs at zero allocations
// once warm: an interpreted ingress run from the wire to the ring, and an
// egress run from the TX ring to the wire, with and without the tenant
// scheduler and an egress qdisc. The packets are built once; every event on
// the way is a recycled continuation record and the overlay environment is
// not boxed.
func TestDatapathZeroAlloc(t *testing.T) {
	cases := []struct {
		name  string
		dir   Direction
		sched bool
		qdisc bool
	}{
		{name: "ingress interpreted", dir: Ingress},
		{name: "ingress interpreted, tenant scheduled", dir: Ingress, sched: true},
		{name: "egress", dir: Egress},
		{name: "egress, tenant scheduled, drr qdisc", dir: Egress, sched: true, qdisc: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, eng := newNIC(1 << 20)
			if tc.sched {
				n.SetTenantScheduler(map[uint32]int{1: 1})
			}
			if tc.qdisc {
				n.SetScheduler(qos.NewDRR(256, 1514))
			}
			c, err := n.OpenConn(1, packet.Meta{UID: 1, Tenant: 1, TrustedMeta: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.SteerFlow(tenantFlow(5001), 1); err != nil {
				t.Fatal(err)
			}
			loadProgram(t, n, tc.dir, aclSrc)
			n.OnRxDeliver = func(c *Conn, _ sim.Time) { _, _ = c.RX.Pop() }
			n.OnTransmit = func(*packet.Packet, sim.Time) {}
			var pkts []*packet.Packet
			for i := 0; i < 6; i++ {
				pkts = append(pkts, tenantUDP(5001))
			}
			cycle := func() {
				for _, p := range pkts {
					if tc.dir == Ingress {
						n.DeliverFromWire(p)
					} else if err := c.TX.Push(mem.Desc{Pkt: p, Produced: eng.Now()}); err != nil {
						t.Fatal(err)
					}
				}
				if tc.dir == Egress {
					n.DoorbellTx(c)
				}
				eng.Run()
			}
			cycle()
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("%s allocates %.2f per %d-frame cycle", tc.name, allocs, len(pkts))
			}
			if tc.dir == Ingress && c.RxDelivered != 102*uint64(len(pkts)) {
				t.Fatalf("delivered %d, want %d", c.RxDelivered, 102*len(pkts))
			}
			if tc.dir == Egress && n.TxFrames != 102*uint64(len(pkts)) {
				t.Fatalf("transmitted %d, want %d", n.TxFrames, 102*len(pkts))
			}
			if n.steps.Live() != 0 {
				t.Fatalf("%d continuation records live after the drain", n.steps.Live())
			}
		})
	}
}

// TestContinuationRecordsDrainProperty drives seeded random traffic through
// every way the NIC can lose or divert a frame — ring full, FIFO overflow,
// verdict drops on both pipelines, shedding, outage (dropped or punted to the
// slow path), link loss, pause and resume with its bounded buffer, and a
// bitstream reload mid-flight — and requires that once the engine drains,
// every continuation record is back on the free list and every frame is
// accounted for. A record leaked on any drop path would stay live here.
func TestContinuationRecordsDrainProperty(t *testing.T) {
	seen := map[string]uint64{}
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine()
			n := New(Config{Engine: eng, Model: timing.Default(), SRAMBudget: 1 << 20, RingSize: 4 << rng.Intn(3)})
			if rng.Intn(2) == 0 {
				n.SetTenantScheduler(map[uint32]int{1: 3, 2: 1})
			}
			if rng.Intn(2) == 0 {
				if err := n.EnableFlowCache(16); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				n.SetScheduler(qos.NewDRR(2, 1514))
			}
			n.SetRxWindow(2 + rng.Intn(16))
			loadProgram(t, n, Ingress, aclSrc)
			loadProgram(t, n, Egress, aclSrc)
			var conns []*Conn
			for id := uint32(1); id <= 3; id++ {
				c, err := n.OpenConn(uint64(id), packet.Meta{UID: id, Tenant: 1 + id%2, TrustedMeta: true}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.SteerFlow(tenantFlow(uint16(5000+id)), uint64(id)); err != nil {
					t.Fatal(err)
				}
				conns = append(conns, c)
			}
			// Conn 3's ring is never consumed, so it fills and drops.
			n.OnRxDeliver = func(c *Conn, _ sim.Time) {
				if c.ID != 3 {
					_, _ = c.RX.Pop()
				}
			}
			var slow, sent uint64
			if rng.Intn(2) == 0 {
				n.SlowPath = func(*packet.Packet, sim.Time) { slow++ }
			}
			n.OnTransmit = func(*packet.Packet, sim.Time) { sent++ }
			shedPort := uint16(5000 + 1 + rng.Intn(3))
			n.SetShedPolicy(func(_ *Conn, p *packet.Packet) bool {
				return p.UDP != nil && p.UDP.DstPort == shedPort && rng.Intn(2) == 0
			})

			ports := []uint16{5001, 5002, 5003, 6000, 9000} // steered ×3, unsteered, blocked
			var rxOffered, txOffered, txAppDrops uint64
			horizon := 200 * sim.Microsecond
			for i := 0; i < 400; i++ {
				at := sim.Time(rng.Int63n(int64(horizon)))
				switch k := rng.Intn(10); {
				case k < 6:
					dport := ports[rng.Intn(len(ports))]
					rxOffered++
					eng.At(at, func() { n.DeliverFromWire(tenantUDP(dport)) })
				case k < 9:
					c := conns[rng.Intn(len(conns))]
					dport := []uint16{80, 9001}[rng.Intn(2)]
					txOffered++
					eng.At(at, func() {
						if err := c.TX.Push(mem.Desc{Pkt: udpTo(dport), Produced: eng.Now()}); err != nil {
							txAppDrops++
							return
						}
						n.DoorbellTx(c)
					})
				default:
					switch rng.Intn(4) {
					case 0:
						eng.At(at, func() { n.ReloadBitstream(eng.Now(), sim.Duration(rng.Intn(20))*sim.Microsecond) })
					case 1:
						eng.At(at, func() {
							if n.PauseRx(1+rng.Intn(4)) == nil {
								eng.After(sim.Duration(rng.Intn(10))*sim.Microsecond, func() { _ = n.ResumeRx() })
							}
						})
					case 2:
						eng.At(at, func() {
							n.SetLink(false)
							eng.After(2*sim.Microsecond, func() { n.SetLink(true) })
						})
					default:
						eng.At(at, func() { n.StallDMA(sim.Duration(rng.Intn(5)) * sim.Microsecond) })
					}
				}
			}
			eng.Run()
			if n.rxPaused { // a pause scheduled past every resume
				_ = n.ResumeRx()
				eng.Run()
			}

			if live := n.steps.Live(); live != 0 {
				t.Fatalf("%d of %d continuation records still live after the drain", live, n.steps.Made())
			}
			var delivered uint64
			for _, c := range conns {
				delivered += c.RxDelivered
			}
			if got := delivered + n.RxSlowPath + n.RxDropped(); got != rxOffered || n.RxWire != rxOffered {
				t.Fatalf("ingress ledger: wire %d, delivered %d + slow %d + dropped %d = %d, offered %d",
					n.RxWire, delivered, n.RxSlowPath, n.RxDropped(), got, rxOffered)
			}
			if n.RxSlowPath != slow || n.RxInflight() != 0 {
				t.Fatalf("slow path counted %d, received %d; %d frames still in the FIFO", n.RxSlowPath, slow, n.RxInflight())
			}
			var qdrops uint64
			if q, ok := n.Scheduler().(*qos.DRR); ok {
				qdrops = q.Stats().DropPackets
			}
			if got := sent + n.TxDropped() + qdrops + txAppDrops; got != txOffered || sent != n.TxFrames {
				t.Fatalf("egress ledger: sent %d (frames %d) + dropped %d + qdisc %d + ring full %d = %d, offered %d",
					sent, n.TxFrames, n.TxDropped(), qdrops, txAppDrops, got, txOffered)
			}
			for _, d := range dropClasses {
				seen[d.name] += *d.field(n)
			}
			seen["rx_slow_path"] += n.RxSlowPath
			seen["rx_pause_buffered"] += n.RxPauseBuffered
			seen["tx_qdisc_drop"] += qdrops
		})
	}
	// The seeds must reach every outcome, or the property proves nothing
	// about the path that was missed.
	for name, v := range seen {
		if v == 0 {
			t.Errorf("no seed reached %s: %v", name, seen)
		}
	}
}
