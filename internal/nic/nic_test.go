package nic

import (
	"errors"
	"testing"

	"norman/internal/mem"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
	"norman/internal/timing"
)

func newNIC(budget int) (*NIC, *sim.Engine) {
	eng := sim.NewEngine()
	n := New(Config{Engine: eng, Model: timing.Default(), SRAMBudget: budget, RingSize: 8})
	return n, eng
}

func udpTo(dport uint16) *packet.Packet {
	return packet.NewUDP(packet.MAC{1}, packet.MAC{2}, packet.MakeIP(10, 0, 0, 2),
		packet.MakeIP(10, 0, 0, 1), 99, dport, 64)
}

func TestOpenCloseSRAMAccounting(t *testing.T) {
	n, _ := newNIC(1 << 20)
	used0, budget := n.SRAM()
	if used0 != 0 || budget != 1<<20 {
		t.Fatalf("initial sram %d/%d", used0, budget)
	}
	c, err := n.OpenConn(1, packet.Meta{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	used1, _ := n.SRAM()
	if used1 <= 0 {
		t.Fatal("conn must consume SRAM")
	}
	if err := n.SteerFlow(packet.FlowKey{SrcPort: 1}, 1); err != nil {
		t.Fatal(err)
	}
	used2, _ := n.SRAM()
	if used2 <= used1 {
		t.Fatal("steering entries consume SRAM")
	}
	if _, err := n.OpenConn(1, packet.Meta{}, nil); err == nil {
		t.Fatal("duplicate conn id must fail")
	}
	_ = c
	if err := n.CloseConn(1); err != nil {
		t.Fatal(err)
	}
	used3, _ := n.SRAM()
	if used3 != 0 {
		t.Fatalf("close must release SRAM and steering: %d", used3)
	}
	if err := n.CloseConn(1); !errors.Is(err, ErrNoSuchConn) {
		t.Fatalf("double close: %v", err)
	}
}

func TestOpenConnExhaustsSRAM(t *testing.T) {
	n, _ := newNIC(800) // fits 3 conns at 256B each
	opened := 0
	for i := 1; i <= 10; i++ {
		if _, err := n.OpenConn(uint64(i), packet.Meta{}, nil); err == nil {
			opened++
		} else if !errors.Is(err, ErrSRAMExhausted) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if opened != 3 {
		t.Fatalf("opened %d conns in 800B", opened)
	}
}

func TestSteeringDeliversToRightRing(t *testing.T) {
	n, eng := newNIC(1 << 20)
	a, _ := n.OpenConn(1, packet.Meta{}, nil)
	b, _ := n.OpenConn(2, packet.Meta{}, nil)
	// Local flows (src = local): inbound packets arrive reversed.
	flowA := packet.FlowKey{Src: packet.MakeIP(10, 0, 0, 1), Dst: packet.MakeIP(10, 0, 0, 2),
		SrcPort: 1000, DstPort: 99, Proto: packet.ProtoUDP}
	flowB := flowA
	flowB.SrcPort = 2000
	if err := n.SteerFlow(flowA, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.SteerFlow(flowB, 2); err != nil {
		t.Fatal(err)
	}

	n.DeliverFromWire(udpTo(2000))
	n.DeliverFromWire(udpTo(1000))
	n.DeliverFromWire(udpTo(3000)) // unsteered, no slow path -> dropped
	eng.Run()

	if a.RxDelivered != 1 || b.RxDelivered != 1 {
		t.Fatalf("deliveries: a=%d b=%d", a.RxDelivered, b.RxDelivered)
	}
	if n.RxDropNoSteer != 1 {
		t.Fatalf("unsteered drops = %d", n.RxDropNoSteer)
	}
}

func TestDefaultConnAndSlowPath(t *testing.T) {
	n, eng := newNIC(1 << 20)
	kq, _ := n.OpenConn(7, packet.Meta{}, nil)
	n.SetDefaultConn(7)
	n.DeliverFromWire(udpTo(4000))
	eng.Run()
	if kq.RxDelivered != 1 {
		t.Fatal("default conn should catch unsteered traffic")
	}

	n.SetDefaultConn(0)
	var slow int
	n.SlowPath = func(p *packet.Packet, at sim.Time) { slow++ }
	n.DeliverFromWire(udpTo(4001))
	eng.Run()
	if slow != 1 || n.RxSlowPath != 1 {
		t.Fatalf("slow path: %d %d", slow, n.RxSlowPath)
	}
}

func TestTxPath(t *testing.T) {
	n, eng := newNIC(1 << 20)
	c, _ := n.OpenConn(1, packet.Meta{UID: 9, TrustedMeta: true}, nil)
	var sentMeta packet.Meta
	var sent int
	n.OnTransmit = func(p *packet.Packet, at sim.Time) {
		sent++
		sentMeta = p.Meta
	}
	p := udpTo(80)
	if err := c.TX.Push(mem.Desc{Pkt: p}); err != nil {
		t.Fatal(err)
	}
	n.DoorbellTx(c)
	eng.Run()
	if sent != 1 || n.TxFrames != 1 {
		t.Fatalf("sent=%d frames=%d", sent, n.TxFrames)
	}
	if sentMeta.UID != 9 || !sentMeta.TrustedMeta || sentMeta.ConnID != 1 {
		t.Fatalf("NIC must stamp trusted metadata: %+v", sentMeta)
	}
}

func TestIngressOverlayDropsAndCounts(t *testing.T) {
	n, eng := newNIC(1 << 20)
	_, _ = n.OpenConn(1, packet.Meta{}, nil)
	n.SetDefaultConn(1)
	prog, err := overlay.Assemble("drop80", `
.counter dropped
ldf r0, dst_port
jne r0, 80, ok
count dropped
drop
ok:
pass
`)
	if err != nil {
		t.Fatal(err)
	}
	m, load, err := n.LoadProgram(Ingress, prog)
	if err != nil {
		t.Fatal(err)
	}
	if load <= 0 {
		t.Fatal("loading costs control-plane time")
	}
	n.DeliverFromWire(udpTo(80))
	n.DeliverFromWire(udpTo(81))
	eng.Run()
	if n.RxDropVerdict != 1 {
		t.Fatalf("verdict drops = %d", n.RxDropVerdict)
	}
	if m.Counter("dropped") != 1 {
		t.Fatalf("overlay counter = %d", m.Counter("dropped"))
	}
	c, _ := n.Conn(1)
	if c.RxDelivered != 1 {
		t.Fatalf("delivered = %d", c.RxDelivered)
	}
}

func TestProgramSRAMAndUnload(t *testing.T) {
	n, _ := newNIC(1 << 20)
	prog, _ := overlay.Assemble("p", ".table t 64\nldf r0, conn\nlookup r1, t, r0, m\npass\nm:\ndrop\n")
	used0, _ := n.SRAM()
	if _, _, err := n.LoadProgram(Egress, prog); err != nil {
		t.Fatal(err)
	}
	used1, _ := n.SRAM()
	if used1 <= used0 {
		t.Fatal("program must consume SRAM")
	}
	n.UnloadProgram(Egress)
	used2, _ := n.SRAM()
	if used2 != used0 {
		t.Fatalf("unload must release SRAM: %d vs %d", used2, used0)
	}
	// A program too big for the remaining budget is rejected.
	tiny, _ := newNIC(64)
	if _, _, err := tiny.LoadProgram(Ingress, prog); !errors.Is(err, ErrSRAMExhausted) {
		t.Fatalf("oversized program: %v", err)
	}
}

func TestBitstreamOutageDropsTraffic(t *testing.T) {
	n, eng := newNIC(1 << 20)
	_, _ = n.OpenConn(1, packet.Meta{}, nil)
	n.SetDefaultConn(1)
	until := n.ReloadBitstream(0, 10*sim.Microsecond)
	if until != sim.Time(10*sim.Microsecond) {
		t.Fatalf("outage until %v", until)
	}
	if !n.Down(sim.Time(5 * sim.Microsecond)) {
		t.Fatal("dataplane should be down")
	}
	n.DeliverFromWire(udpTo(80))
	eng.Run()
	if n.RxOutageDrop != 1 {
		t.Fatalf("outage drops = %d", n.RxOutageDrop)
	}
	// After the outage window traffic flows again.
	eng.At(sim.Time(20*sim.Microsecond), func() { n.DeliverFromWire(udpTo(80)) })
	eng.Run()
	c, _ := n.Conn(1)
	if c.RxDelivered != 1 {
		t.Fatalf("post-outage delivery = %d", c.RxDelivered)
	}

	// With a slow path installed, an outage frame is handed over, not lost:
	// it counts once, in RxSlowPath, so wire = delivered + slow + Σdrops.
	n, eng = newNIC(1 << 20)
	_, _ = n.OpenConn(1, packet.Meta{}, nil)
	n.SetDefaultConn(1)
	var slow int
	n.SlowPath = func(*packet.Packet, sim.Time) { slow++ }
	n.ReloadBitstream(0, 10*sim.Microsecond)
	n.DeliverFromWire(udpTo(80))
	eng.Run()
	if slow != 1 || n.RxSlowPath != 1 || n.RxOutageDrop != 0 {
		t.Fatalf("outage with slow path: handed %d, RxSlowPath %d, RxOutageDrop %d; want 1, 1, 0",
			slow, n.RxSlowPath, n.RxOutageDrop)
	}
	if got := n.RxSlowPath + n.RxDropped(); got != n.RxWire {
		t.Fatalf("ledger: slow %d + drops %d != wire %d", n.RxSlowPath, n.RxDropped(), n.RxWire)
	}
}

func TestNotifyQueueOnRx(t *testing.T) {
	n, eng := newNIC(1 << 20)
	q := mem.NewNotifyQueue(16)
	c, _ := n.OpenConn(1, packet.Meta{}, q)
	c.NotifyRx = true
	n.SetDefaultConn(1)
	var kinds []mem.NotifyKind
	n.OnNotify = func(_ *Conn, k mem.NotifyKind, _ sim.Time) { kinds = append(kinds, k) }
	n.DeliverFromWire(udpTo(80))
	eng.Run()
	if len(kinds) != 1 || kinds[0] != mem.NotifyRxReady {
		t.Fatalf("notifications: %v", kinds)
	}
	if q.Len() != 1 {
		t.Fatalf("queue length %d", q.Len())
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	n, eng := newNIC(1 << 20)
	c, _ := n.OpenConn(1, packet.Meta{}, nil)
	n.SetDefaultConn(1)
	// Nothing consumes the ring (no OnRxDeliver pop): 8 slots, 12 packets.
	for i := 0; i < 12; i++ {
		n.DeliverFromWire(udpTo(80))
	}
	eng.Run()
	if c.RxDelivered != 8 {
		t.Fatalf("delivered = %d, want ring size 8", c.RxDelivered)
	}
	if n.RxDropRing != 4 {
		t.Fatalf("ring drops = %d", n.RxDropRing)
	}
}

func TestNotifyCoalescing(t *testing.T) {
	n, eng := newNIC(1 << 20)
	q := mem.NewNotifyQueue(64)
	c, _ := n.OpenConn(1, packet.Meta{}, q)
	c.NotifyRx = true
	c.NotifyCoalesce = 100 * sim.Microsecond
	n.SetDefaultConn(1)
	var callbacks int
	n.OnRxDeliver = func(cc *Conn, _ sim.Time) { _, _ = cc.RX.Pop() }
	n.OnNotify = func(*Conn, mem.NotifyKind, sim.Time) { callbacks++ }

	// 10 packets in a 10µs burst: one coalescing window.
	for i := 0; i < 10; i++ {
		i := i
		eng.At(sim.Time(i)*sim.Time(sim.Microsecond), func() {
			n.DeliverFromWire(udpTo(80))
		})
	}
	eng.Run()
	if callbacks != 1 {
		t.Fatalf("10 packets within one window should cause 1 callback, got %d", callbacks)
	}
	if pushed, _ := q.Counters(); pushed != 10 {
		t.Fatalf("all notifications still queue: %d", pushed)
	}

	// A second burst after the window fires again.
	eng.At(eng.Now().Add(sim.Duration(sim.Millisecond)), func() { n.DeliverFromWire(udpTo(80)) })
	eng.Run()
	if callbacks != 2 {
		t.Fatalf("post-window packet should fire a fresh callback, got %d", callbacks)
	}
}

func TestPerConnRateLimit(t *testing.T) {
	eng := sim.NewEngine()
	n := New(Config{Engine: eng, Model: timing.Default(), SRAMBudget: 1 << 20, RingSize: 32})
	limited, _ := n.OpenConn(1, packet.Meta{}, nil)
	free, _ := n.OpenConn(2, packet.Meta{}, nil)
	// 10 MB/s with a one-frame burst.
	if err := n.SetConnRate(1, 10e6, 1514); err != nil {
		t.Fatal(err)
	}
	if err := n.SetConnRate(99, 1, 1); !errors.Is(err, ErrNoSuchConn) {
		t.Fatalf("unknown conn: %v", err)
	}

	var lastLimited, lastFree sim.Time
	var nLimited, nFree int
	n.OnTransmit = func(p *packet.Packet, at sim.Time) {
		if p.Meta.ConnID == 1 {
			nLimited++
			lastLimited = at
		} else {
			nFree++
			lastFree = at
		}
	}
	// 20 × 1502B frames on each connection, all at t=0.
	for i := 0; i < 20; i++ {
		pl := packet.NewUDP(packet.MAC{}, packet.MAC{}, 1, 2, 10, 20, 1460)
		pf := packet.NewUDP(packet.MAC{}, packet.MAC{}, 1, 2, 11, 21, 1460)
		if err := limited.TX.Push(mem.Desc{Pkt: pl}); err != nil {
			t.Fatal(err)
		}
		if err := free.TX.Push(mem.Desc{Pkt: pf}); err != nil {
			t.Fatal(err)
		}
	}
	n.DoorbellTx(limited)
	n.DoorbellTx(free)
	eng.Run()

	if nLimited != 20 || nFree != 20 {
		t.Fatalf("delivered %d/%d", nLimited, nFree)
	}
	// 19 paced frames (first rides the burst) at 1502B / 10MB/s ≈ 150µs each.
	wantSpan := sim.Duration(19 * 150 * sim.Microsecond)
	span := sim.Duration(lastLimited)
	if span < wantSpan.Scale(0.9) || span > wantSpan.Scale(1.2) {
		t.Fatalf("limited conn finished in %v, want ≈%v", span, wantSpan)
	}
	// The unlimited connection is done in microseconds, unaffected.
	if sim.Duration(lastFree) > 100*sim.Microsecond {
		t.Fatalf("free conn throttled: %v", sim.Duration(lastFree))
	}
	// Clearing the limit restores full speed.
	if err := n.SetConnRate(1, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTSOSplitsSegments(t *testing.T) {
	eng := sim.NewEngine()
	n := New(Config{Engine: eng, Model: timing.Default(), RingSize: 32, BufBytes: 65536})
	c, _ := n.OpenConn(1, packet.Meta{}, nil)
	if err := n.SetTSO(1, 1400); err != nil {
		t.Fatal(err)
	}
	if err := n.SetTSO(9, 1400); !errors.Is(err, ErrNoSuchConn) {
		t.Fatal("unknown conn")
	}

	var frames []int
	var seqs []uint32
	n.OnTransmit = func(p *packet.Packet, _ sim.Time) {
		frames = append(frames, p.PayloadLen)
		seqs = append(seqs, p.TCP.Seq)
	}
	// One 10000-byte super-segment.
	super := packet.NewTCP(packet.MAC{}, packet.MAC{}, 1, 2, 10, 20, packet.TCPPsh, 10000)
	super.TCP.Seq = 5000
	if err := c.TX.Push(mem.Desc{Pkt: super}); err != nil {
		t.Fatal(err)
	}
	n.DoorbellTx(c)
	eng.Run()

	if len(frames) != 8 { // ceil(10000/1400)
		t.Fatalf("segments = %d, want 8", len(frames))
	}
	total := 0
	for i, f := range frames {
		total += f
		if f > 1400 {
			t.Fatalf("segment %d oversize: %d", i, f)
		}
		if seqs[i] != 5000+uint32(i*1400) {
			t.Fatalf("segment %d seq %d", i, seqs[i])
		}
	}
	if total != 10000 {
		t.Fatalf("bytes conserved: %d", total)
	}
	// Staging-slot accounting balanced (no leak, no deficit).
	if n.txInflight != 0 {
		t.Fatalf("txInflight = %d after drain", n.txInflight)
	}
}
