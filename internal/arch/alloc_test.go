package arch

import (
	"fmt"
	"strings"
	"testing"

	"norman/internal/filter"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// TestWorldAllocsPerPacket is the world-level allocation guard: once warm, a
// KOPI world spends no allocation of its own on a packet. The only
// allocations left are the packets the test builds — one per frame offered
// from the wire, two per echoed datagram (the app's and the peer's reply) —
// so AllocsPerRun may not exceed that count. Afterwards every continuation
// record must be back on its free list.
func TestWorldAllocsPerPacket(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) (w *World, a *KOPI, offer func(), built int)
	}{
		{name: "rx fastpath", build: rxFastpathWorld},
		{name: "txrx echo", build: echoWorld},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, a, offer, built := tc.build(t)
			cycle := func() {
				offer()
				w.Eng.Run()
			}
			for i := 0; i < 3; i++ {
				cycle() // fill the flow cache, grow queues and free lists
			}
			delivered := deliveredOn(a)
			allocs := testing.AllocsPerRun(50, cycle)
			if allocs > float64(built) {
				t.Fatalf("%.2f allocations per cycle, only the %d packets the test builds are allowed (%.2f per packet)",
					allocs, built, allocs/float64(built))
			}
			if got := deliveredOn(a) - delivered; got == 0 {
				t.Fatal("no packet was delivered during the measured cycles")
			}
			if a.steps.Live() != 0 || w.wire.Live() != 0 {
				t.Fatalf("continuation records live after the drain: host %d, wire %d", a.steps.Live(), w.wire.Live())
			}
		})
	}
}

func deliveredOn(a *KOPI) uint64 {
	var n uint64
	for _, c := range a.conns {
		n += c.Delivered
	}
	return n
}

// rxFastpathWorld is shaped like kopiperf's rx_fastpath: polled connections
// behind the flow cache and E14's 15-rule cacheable ACL, every frame a hit.
func rxFastpathWorld(t *testing.T) (*World, *KOPI, func(), int) {
	a := New("kopi", WorldConfig{RingSize: 256}).(*KOPI)
	w := a.World()
	w.Peer = func(*packet.Packet, sim.Time) {}
	if err := w.NIC.EnableFlowCache(4096); err != nil {
		t.Fatal(err)
	}
	var acl strings.Builder
	acl.WriteString("ldf r0, dst_port\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&acl, "jeq r0, %d, blocked\n", 9000+i)
	}
	acl.WriteString("ldi r2, 7\nsetf mark, r2\npass\nblocked:\ndrop\n")
	prog, err := overlay.Assemble("acl", acl.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.NIC.LoadProgram(nic.Ingress, prog); err != nil {
		t.Fatal(err)
	}
	w.Kern.AddUser(1000, "app")
	var flows []packet.FlowKey
	for i := 0; i < 32; i++ {
		proc := w.Kern.Spawn(1000, fmt.Sprintf("app-%d", i%4))
		flow := w.Flow(uint16(10000+i), uint16(20000+i))
		if _, err := a.Connect(proc, flow); err != nil {
			t.Fatal(err)
		}
		flows = append(flows, flow)
	}
	const frames = 64
	offer := func() {
		for i := 0; i < frames; i++ {
			a.DeliverWire(w.UDPFrom(flows[i%len(flows)], 18))
		}
	}
	return w, a, offer, frames
}

// echoWorld is shaped like kopiperf's txrx_echo: owner-filtered egress and
// ingress, a per-uid DRR qdisc, a peer that reflects every datagram, and
// half the connections woken by the kernel instead of polling.
func echoWorld(t *testing.T) (*World, *KOPI, func(), int) {
	a := New("kopi", WorldConfig{RingSize: 32}).(*KOPI)
	w := a.World()
	uids := []uint32{2001, 2002}
	for _, uid := range uids {
		w.Kern.AddUser(uid, fmt.Sprint("u", uid))
	}
	for _, h := range []filter.Hook{filter.HookOutput, filter.HookInput} {
		for _, uid := range uids {
			r := &filter.Rule{Proto: filter.Proto(packet.ProtoUDP), OwnerUID: filter.UID(uid), Action: filter.ActAccept}
			if err := a.InstallRule(h, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.InstallRule(h, &filter.Rule{Action: filter.ActDrop}); err != nil {
			t.Fatal(err)
		}
	}
	q := qos.NewDRR(4096, 1514)
	q.SetQuantum(2001, 2*1514)
	q.SetQuantum(2002, 1514)
	if err := a.SetQdisc(q, func(p *packet.Packet) uint32 { return p.Meta.UID }); err != nil {
		t.Fatal(err)
	}
	var conns []*Conn
	var flows []packet.FlowKey
	for i := 0; i < 16; i++ {
		uid := uids[i%2]
		proc := w.Kern.Spawn(uid, fmt.Sprint("p", i))
		flow := w.Flow(uint16(10000+i), uint16(20000+i))
		c, err := a.Connect(proc, flow)
		if err != nil {
			t.Fatal(err)
		}
		if uid == 2002 {
			if err := a.SetRxMode(c, RxBlock); err != nil {
				t.Fatal(err)
			}
		}
		conns = append(conns, c)
		flows = append(flows, flow)
	}
	w.Peer = func(p *packet.Packet, _ sim.Time) {
		a.DeliverWire(packet.NewUDP(w.PeerMAC, w.HostMAC, p.IP.Dst, p.IP.Src, p.UDP.DstPort, p.UDP.SrcPort, p.PayloadLen))
	}
	const perConn = 4
	batch := make([]*packet.Packet, perConn)
	offer := func() {
		for i, c := range conns {
			for j := range batch {
				batch[j] = w.UDPTo(flows[i], []int{64, 1472}[j%2])
			}
			a.SendBatch(c, batch)
		}
	}
	return w, a, offer, 2 * perConn * len(conns)
}
