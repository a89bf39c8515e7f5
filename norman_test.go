package norman_test

import (
	"strings"
	"testing"

	"norman"
	"norman/internal/health"
	"norman/internal/overload"
	"norman/internal/sim"
	"norman/internal/upgrade"
)

func TestQuickstartFlow(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseEchoPeer()
	alice := sys.AddUser(1000, "alice")
	app := sys.Spawn(alice, "app")
	conn, err := sys.Dial(app, 40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	echoes := 0
	conn.OnReceive(func(d norman.Delivery) {
		echoes++
		if d.Payload != 512 {
			t.Errorf("payload %d", d.Payload)
		}
		if !strings.HasPrefix(d.From, "10.0.0.2:") {
			t.Errorf("from %q", d.From)
		}
		if echoes < 10 {
			conn.Send(512)
		}
	})
	conn.Send(512)
	end := sys.Run()
	if echoes != 10 {
		t.Fatalf("echoes = %d", echoes)
	}
	if end <= 0 || sys.Now() != end {
		t.Fatalf("clock: %v %v", end, sys.Now())
	}
	if conn.Delivered() != 10 {
		t.Fatalf("delivered = %d", conn.Delivered())
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Netstat()) != 0 {
		t.Fatal("netstat after close should be empty")
	}
}

func TestDialConflictsAndErrors(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseEchoPeer()
	u := sys.AddUser(1, "u")
	p1 := sys.Spawn(u, "a")
	p2 := sys.Spawn(u, "b")
	if _, err := sys.Dial(p1, 5000, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Dial(p2, 5000, 7); err == nil {
		t.Fatal("port conflict must fail")
	}
}

func TestCapabilitiesDifferByArchitecture(t *testing.T) {
	for _, a := range norman.Architectures() {
		sys := norman.New(a)
		caps := sys.Capabilities()
		switch a {
		case norman.Bypass:
			if caps.OwnerFiltering || caps.BlockingIO {
				t.Errorf("bypass caps: %+v", caps)
			}
			if caps.Transfers != 1 {
				t.Errorf("bypass transfers: %d", caps.Transfers)
			}
		case norman.KOPI:
			if !caps.OwnerFiltering || !caps.BlockingIO || caps.Transfers != 1 {
				t.Errorf("kopi caps: %+v", caps)
			}
		case norman.KernelStack:
			if caps.Transfers != 2 || !caps.OwnerFiltering {
				t.Errorf("kernelstack caps: %+v", caps)
			}
		}
	}
}

func TestAdminRuleValidation(t *testing.T) {
	sys := norman.New(norman.KOPI)
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Proto: "icmpx"}); err == nil {
		t.Fatal("bad proto must fail")
	}
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{SrcNet: "banana"}); err == nil {
		t.Fatal("bad CIDR must fail")
	}
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Action: "explode"}); err == nil {
		t.Fatal("bad action must fail")
	}
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{
		Proto: "udp", SrcNet: "10.0.0.0/8", DstPort: 53, Action: "drop",
	}); err != nil {
		t.Fatalf("valid rule: %v", err)
	}
}

func TestBypassRefusesAdminVerbs(t *testing.T) {
	sys := norman.New(norman.Bypass)
	if err := sys.IPTablesAppend(norman.Output, norman.Rule{Action: "drop"}); err == nil {
		t.Fatal("bypass iptables must fail")
	}
	if _, err := sys.Tcpdump("udp"); err == nil {
		t.Fatal("bypass tcpdump must fail")
	}
	if err := sys.TCSet(norman.QdiscSpec{Kind: "wfq"}, nil); err == nil {
		t.Fatal("bypass tc must fail")
	}
}

func TestBlockingAPI(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseSinkPeer()
	u := sys.AddUser(1, "u")
	p := sys.Spawn(u, "worker")
	conn, err := sys.Dial(p, 7000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetBlocking(true); err != nil {
		t.Fatalf("kopi must support blocking: %v", err)
	}
	got := 0
	conn.OnReceive(func(norman.Delivery) { got++ })
	sys.At(10*norman.Microsecond, func() { sys.InjectInbound(conn, 128) })
	sys.Run()
	if got != 1 {
		t.Fatalf("blocked receiver woke %d times", got)
	}

	bp := norman.New(norman.Bypass)
	bp.UseSinkPeer()
	u2 := bp.AddUser(1, "u")
	p2 := bp.Spawn(u2, "w")
	c2, err := bp.Dial(p2, 7000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SetBlocking(true); err == nil {
		t.Fatal("bypass blocking must fail")
	}
}

func TestTcpdumpAttribution(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseSinkPeer()
	u := sys.AddUser(1000, "alice")
	p := sys.Spawn(u, "sender")
	conn, err := sys.Dial(p, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := sys.Tcpdump("uid 1000")
	if err != nil {
		t.Fatal(err)
	}
	conn.SendBatch(100, 5)
	sys.Run()
	_, matched := capture.Counters()
	if matched != 5 {
		t.Fatalf("matched %d", matched)
	}
	for _, r := range capture.Records() {
		if r.Attribution() == "?" {
			t.Fatal("kopi records must be attributed")
		}
	}

	// The same uid filter is rejected where no process view exists.
	hv := norman.New(norman.Hypervisor)
	if _, err := hv.Tcpdump("uid 1000"); err == nil {
		t.Fatal("hypervisor must reject uid capture filters")
	}
	if _, err := hv.Tcpdump("udp"); err != nil {
		t.Fatalf("plain filters work on the hypervisor: %v", err)
	}
}

func TestWithOptions(t *testing.T) {
	sys := norman.New(norman.KOPI, norman.WithNICSRAM(1024), norman.WithRingSize(16))
	u := sys.AddUser(1, "u")
	p := sys.Spawn(u, "a")
	opened := 0
	for i := 0; i < 10; i++ {
		if _, err := sys.Dial(p, uint16(6000+i), 7); err == nil {
			opened++
		}
	}
	if opened >= 10 {
		t.Fatal("tiny SRAM budget must limit connections")
	}
	sys2 := norman.New(norman.KOPI, norman.WithoutCacheModel())
	if sys2.World().LLC != nil {
		t.Fatal("WithoutCacheModel must disable the LLC")
	}
}

func TestPerConnRateLimitAPI(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sink := sys.UseSinkPeer()
	u := sys.AddUser(1, "u")
	p := sys.Spawn(u, "a")
	conn, err := sys.Dial(p, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetRateLimit(10e6); err != nil { // 10 MB/s
		t.Fatal(err)
	}
	conn.SendBatch(1460, 40)
	end := sys.Run()
	if sink.Packets != 40 {
		t.Fatalf("delivered %d", sink.Packets)
	}
	// 40 × 1502B at 10 MB/s ≈ 6 ms; unthrottled this takes microseconds.
	if end < 4*norman.Millisecond {
		t.Fatalf("rate limit not enforced: finished in %v", end)
	}

	ks := norman.New(norman.KernelStack)
	u2 := ks.AddUser(1, "u")
	p2 := ks.Spawn(u2, "a")
	c2, err := ks.Dial(p2, 6000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SetRateLimit(1e6); err == nil {
		t.Fatal("kernelstack conns own no NIC queues to pace")
	}
}

func TestPingAPI(t *testing.T) {
	sys := norman.New(norman.KOPI)
	sys.UseEchoPeer() // UDP-only peer: replace with a real endpoint below
	w := sys.World()
	// Install a pingable endpoint at the peer address.
	_ = w
	net := newTestNetwork(sys)
	_ = net

	var rtt norman.Duration
	var ok bool
	if err := sys.Ping("10.0.0.2", func(d norman.Duration, o bool) { rtt, ok = d, o }); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if !ok || rtt < 4*norman.Microsecond {
		t.Fatalf("ping: ok=%v rtt=%v", ok, rtt)
	}
	if err := sys.Ping("not-an-ip", nil); err == nil {
		t.Fatal("bad address must fail")
	}

	bp := norman.New(norman.Bypass)
	if err := bp.Ping("10.0.0.2", nil); err == nil {
		t.Fatal("bypass ping must fail")
	}
}

// TestRunKeepsSamplerHorizons: Run pauses the overload watchdog, the health
// monitor and the upgrade canary for its drain, then resumes each with the
// horizon it was started with. A 50µs watchdog or monitor must not outlive
// 50µs because a drain came in between, and one whose horizon the drain ran
// past stays stopped; the canary still resolves when its window closes.
func TestRunKeepsSamplerHorizons(t *testing.T) {
	const (
		horizon = 50 * sim.Microsecond
		period  = 5 * sim.Microsecond
	)
	for _, tc := range []struct {
		name     string
		drainEnd sim.Duration // last queued event before Run; 0 = idle drain
	}{
		{"drain_before_horizon", 0},
		{"drain_past_horizon", 2 * horizon},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := norman.New(norman.KOPI)
			gov := sys.EnableOverload(overload.Config{SampleEvery: period})
			hm := sys.EnableHealth(health.Config{SampleEvery: period})
			up := sys.EnableLiveUpgrade(upgrade.Config{CanaryWindow: horizon, SampleEvery: period})
			gov.Start(sim.Time(horizon))
			hm.Start(sim.Time(horizon))
			if err := sys.StartLiveUpgrade(); err != nil {
				t.Fatal(err)
			}
			sys.RunFor(sim.Microsecond) // past the cutover's MMIO pause: the canary is open
			if !gov.Running() || !hm.Running() || !up.Running() {
				t.Fatalf("samplers not all armed before Run: gov=%v hm=%v canary=%v",
					gov.Running(), hm.Running(), up.Running())
			}
			if tc.drainEnd > 0 {
				sys.At(tc.drainEnd, func() {})
			}

			sys.Run()
			if end := sys.Now(); (tc.drainEnd == 0 && end >= horizon) || (tc.drainEnd > 0 && end != tc.drainEnd) {
				t.Fatalf("Run drained to %v", end)
			}
			if tc.drainEnd > 0 && (gov.Running() || hm.Running()) {
				t.Errorf("sampler re-armed after the drain passed its horizon: gov=%v hm=%v",
					gov.Running(), hm.Running())
			}
			sys.RunFor(10 * horizon)

			if gov.Running() {
				t.Error("overload watchdog still running past its horizon")
			}
			if hm.Running() {
				t.Error("health monitor still running past its horizon")
			}
			if max := uint64(horizon / period); hm.Samples > max {
				t.Errorf("health monitor took %d samples, want at most %d within its horizon", hm.Samples, max)
			}
			if up.Running() || up.Phase() != upgrade.Committed {
				t.Errorf("canary running=%v phase=%v, want committed once its window closed",
					up.Running(), up.Phase())
			}
		})
	}
}
