package arch

import (
	"testing"

	"norman/internal/packet"
	"norman/internal/sim"
)

// TestSmokeEchoAllArchitectures runs a 100-packet UDP echo through every
// architecture: the app sends, the peer echoes, the app must receive every
// response. This validates the end-to-end event plumbing each architecture
// wires differently.
func TestSmokeEchoAllArchitectures(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a := New(name, WorldConfig{})
			if a == nil {
				t.Fatalf("unknown architecture %q", name)
			}
			w := a.World()

			// Peer: echo every UDP packet back.
			w.Peer = func(p *packet.Packet, at sim.Time) {
				if p.UDP == nil {
					return
				}
				resp := packet.NewUDP(w.PeerMAC, w.HostMAC, p.IP.Dst, p.IP.Src,
					p.UDP.DstPort, p.UDP.SrcPort, p.PayloadLen)
				a.DeliverWire(resp)
			}

			alice := w.Kern.AddUser(1000, "alice")
			proc := w.Kern.Spawn(alice.UID, "echoclient")
			flow := w.Flow(40000, 7)
			c, err := a.Connect(proc, flow)
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}

			got := 0
			a.SetDeliver(func(_ *Conn, p *packet.Packet, at sim.Time) {
				got++
			})

			const n = 100
			for i := 0; i < n; i++ {
				i := i
				w.Eng.At(sim.Time(i)*sim.Time(10*sim.Microsecond), func() {
					a.Send(c, w.UDPTo(flow, 512))
				})
			}
			end := w.Eng.Run()
			if got != n {
				t.Fatalf("%s: delivered %d/%d echoes (end=%v, nic rx=%d drops=%d slow=%d)",
					name, got, n, end, w.NIC.RxWire, w.NIC.RxDropped(), w.NIC.RxSlowPath)
			}
			if end <= 0 {
				t.Fatalf("%s: simulation did not advance", name)
			}
		})
	}
}
