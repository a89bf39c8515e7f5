package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"norman/internal/arch"
	"norman/internal/filter"
	"norman/internal/kernel"
	"norman/internal/nic"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/qos"
	"norman/internal/sim"
)

// class is one population of connections and the seeded traffic offered on
// them: which user and tenant owns them, how many processes and flows, the
// open-loop arrival rate and the payload mix.
type class struct {
	Name   string
	UID    uint32
	Tenant uint32 // isolation tenant; 0 leaves the NIC unscheduled
	Weight int    // tenant weight for the NIC's DRR scheduler
	Procs  int
	Flows  int
	// Rate is arrivals per virtual second: one frame each for wire
	// injection, one SendBatch call each for app transmit.
	Rate     float64
	Payloads []int // payload bytes, drawn uniformly per datagram
	// Block puts the class's connections in blocking receive: the kernel
	// wakes the owner on each notification. Otherwise they poll.
	Block bool
}

// config is a workload's definition. It is hashed into every result
// (configHash) so results taken under different definitions never compare;
// what the code fixes for every workload (the ACL, the slice count, the
// echo batch size) is covered by the commit in the host fingerprint.
type config struct {
	Name string
	// Echo selects the transmit direction: apps SendBatch datagrams to a peer
	// that reflects each one back through the NIC's receive path. Otherwise
	// the peer injects frames from the wire.
	Echo     bool
	RingSize int
	Warmup   int // packets offered before the timed window
	Window   int // packets offered in the timed window
	Classes  []class
	// FlowCache is the NIC flow-cache size in entries; 0 leaves it off.
	FlowCache int
	// ACL loads E14's cacheable 15-rule ingress port blocklist.
	ACL bool
	// OwnerRules installs OUTPUT and INPUT chains that accept each class's
	// uid by owner match and drop everything else.
	OwnerRules bool
	// Qdisc installs a per-uid DRR egress scheduler; each class's quantum is
	// its Weight full frames.
	Qdisc bool
}

// workloads are the benchmark's three traffic mixes. Each stresses a
// different set of layers; README.md records why each exists and which
// metrics it should move.
var workloads = []config{
	{
		// Single tenant, every frame a flow-cache hit, ring working set
		// inside the DDIO ways: fixed per-packet cost dominates.
		Name: "rx_fastpath", RingSize: 256, Warmup: 100_000, Window: 500_000,
		FlowCache: 4096, ACL: true,
		Classes: []class{{Name: "app", UID: 1000, Procs: 8, Flows: 64, Rate: 70e6, Payloads: []int{18}}},
	},
	{
		// E14-shaped: tenant DRR at 7:1, a victim on long flows and an
		// adversary flooding short flows through a shared 256-entry cache,
		// ring working set far past the DDIO share.
		Name: "rx_churn", RingSize: 16, Warmup: 360_000, Window: 240_000,
		FlowCache: 256, ACL: true,
		Classes: []class{
			{Name: "victim", UID: 101, Tenant: 1, Weight: 7, Procs: 1, Flows: 64, Rate: 12.5e9 / (298 * 8), Payloads: []int{256}},
			{Name: "flood", UID: 202, Tenant: 2, Weight: 1, Procs: 1, Flows: 4096, Rate: 10e9 / (106 * 8), Payloads: []int{64}},
		},
	},
	{
		// Transmit and receive: owner-filtered egress and ingress on every
		// frame, a per-uid DRR qdisc, an echo peer, half the connections
		// woken by the kernel. The blocking half carries a third of the
		// traffic, so the latency median sits inside the polling mode
		// instead of on the gap between the two modes, where it would jump
		// from seed to seed.
		Name: "txrx_echo", Echo: true, RingSize: 32, Warmup: 60_000, Window: 160_000,
		OwnerRules: true, Qdisc: true,
		Classes: []class{
			{Name: "web", UID: 2001, Weight: 2, Procs: 4, Flows: 128, Rate: 27e3, Payloads: []int{64, 1472}},
			{Name: "batch", UID: 2002, Weight: 1, Procs: 4, Flows: 128, Rate: 13e3, Payloads: []int{64, 1472}, Block: true},
		},
	},
}

// workloadByName finds a workload definition.
func workloadByName(name string) (config, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return config{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// configHash fingerprints a workload definition.
func configHash(cfg config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // config holds only plain values
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// offer is one pre-generated packet: when it is offered (virtual time), on
// which flow, with how many payload bytes. Consecutive offers with the same
// time and flow form one SendBatch on echo workloads.
type offer struct {
	at   sim.Time
	flow uint32
	size uint16
}

// input is a workload's whole pre-generated offered load. Offers
// [0, warm) are the warm-up, [warm, end) the timed window; offers[end] is
// a sentinel whose time closes the window and which is never offered.
type input struct {
	offers []offer
	warm   int
	end    int
}

// generate draws a workload's offered load from seed: a Poisson arrival
// process at the classes' summed rate, each arrival assigned to a class in
// proportion to its rate, then to a uniformly drawn flow of that class. The
// load is open loop: times are fixed here and never depend on the world.
func generate(cfg config, seed int64) *input {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	base := make([]uint32, len(cfg.Classes))
	var nflows uint32
	for i, c := range cfg.Classes {
		total += c.Rate
		base[i] = nflows
		nflows += uint32(c.Flows)
	}
	in := &input{offers: make([]offer, 0, cfg.Warmup+cfg.Window+2*echoBatch+1), warm: -1}
	var t float64 // picoseconds
	var last sim.Time = -1
	for {
		t += rng.ExpFloat64() / total * float64(sim.Second)
		at := sim.Time(t)
		if at <= last {
			at = last + 1 // distinct arrival instants keep batches apart
		}
		last = at
		if in.warm >= 0 && len(in.offers) >= in.warm+cfg.Window {
			in.end = len(in.offers)
			in.offers = append(in.offers, offer{at: at})
			return in
		}
		if in.warm < 0 && len(in.offers) >= cfg.Warmup {
			in.warm = len(in.offers)
		}
		ci := 0
		for x := rng.Float64() * total; ci < len(cfg.Classes)-1; ci++ {
			if x -= cfg.Classes[ci].Rate; x < 0 {
				break
			}
		}
		c := cfg.Classes[ci]
		flow := base[ci] + uint32(rng.Intn(c.Flows))
		n := 1
		if cfg.Echo {
			n = 1 + rng.Intn(echoBatch)
		}
		for j := 0; j < n; j++ {
			in.offers = append(in.offers, offer{at: at, flow: flow, size: uint16(c.Payloads[rng.Intn(len(c.Payloads))])})
		}
	}
}

// echoBatch is the most datagrams one SendBatch call carries on an echo
// workload; each call carries 1..echoBatch, drawn uniformly.
const echoBatch = 8

// setupSpans times the set-up calls into the program's public surface. Off
// (untraced) it records nothing, so set-up is timed only as a whole.
type setupSpans struct {
	on      bool
	world   time.Duration // arch.New
	connect time.Duration // every Arch.Connect
	config  time.Duration // programs, rules, cache, tenants, qdisc, rx modes
	conns   int
}

func (s *setupSpans) start() time.Time {
	if !s.on {
		return time.Time{}
	}
	return time.Now()
}

func (s *setupSpans) add(d *time.Duration, t0 time.Time) {
	if s.on {
		*d += time.Since(t0)
	}
}

// world is one built KOPI world with the handles the driver needs.
type world struct {
	a     *arch.KOPI
	w     *arch.World
	flows []packet.FlowKey
	conns []*arch.Conn
	qdisc *qos.DRR
	// peerRx counts frames the echo peer received off the wire.
	peerRx uint64
}

// build constructs a workload's world: KOPI on a fresh simulated machine,
// users, processes and tenants, the NIC configuration, and one connection
// per flow. Everything it does is set-up time.
func build(cfg config, sp *setupSpans) (*world, error) {
	t0 := sp.start()
	a, ok := arch.New("kopi", arch.WorldConfig{RingSize: cfg.RingSize}).(*arch.KOPI)
	sp.add(&sp.world, t0)
	if !ok {
		return nil, fmt.Errorf("arch.New(kopi) is not *arch.KOPI")
	}
	wd := &world{a: a, w: a.World()}
	w := wd.w

	weights := map[uint32]int{}
	classProcs := make([][]*kernel.Process, len(cfg.Classes))
	for i, c := range cfg.Classes {
		w.Kern.AddUser(c.UID, c.Name)
		if c.Tenant != 0 {
			w.Kern.AssignTenant(c.UID, c.Tenant)
			weights[c.Tenant] = c.Weight
		}
		for p := 0; p < c.Procs; p++ {
			classProcs[i] = append(classProcs[i], w.Kern.Spawn(c.UID, fmt.Sprintf("%s-%d", c.Name, p)))
		}
	}

	t0 = sp.start()
	if err := configure(cfg, wd, weights); err != nil {
		return nil, err
	}
	sp.add(&sp.config, t0)

	for i, c := range cfg.Classes {
		for f := 0; f < c.Flows; f++ {
			g := len(wd.flows)
			flow := w.Flow(uint16(10000+g), uint16(20000+g%1000))
			t0 := sp.start()
			conn, err := a.Connect(classProcs[i][f%c.Procs], flow)
			sp.add(&sp.connect, t0)
			if err != nil {
				return nil, fmt.Errorf("connect %s flow %d: %w", c.Name, f, err)
			}
			if c.Block {
				t0 := sp.start()
				err := a.SetRxMode(conn, arch.RxBlock)
				sp.add(&sp.config, t0)
				if err != nil {
					return nil, fmt.Errorf("blocking receive: %w", err)
				}
			}
			wd.flows = append(wd.flows, flow)
			wd.conns = append(wd.conns, conn)
		}
	}
	sp.conns = len(wd.conns)

	if cfg.Echo {
		w.Peer = func(p *packet.Packet, at sim.Time) {
			wd.peerRx++
			reply := packet.NewUDP(w.PeerMAC, w.HostMAC, p.IP.Dst, p.IP.Src, p.UDP.DstPort, p.UDP.SrcPort, p.PayloadLen)
			reply.Meta.Trace = p.Meta.Trace // the offer id travels with the echo
			a.DeliverWire(reply)
		}
	} else {
		w.Peer = func(*packet.Packet, sim.Time) {}
	}
	return wd, nil
}

// configure applies the workload's NIC and kernel configuration through the
// same public calls an experiment uses.
func configure(cfg config, wd *world, weights map[uint32]int) error {
	w := wd.w
	if len(weights) > 0 {
		w.NIC.SetTenantScheduler(weights)
	}
	if cfg.FlowCache > 0 {
		if err := w.NIC.EnableFlowCache(cfg.FlowCache); err != nil {
			return fmt.Errorf("enable flow cache: %w", err)
		}
	}
	if cfg.ACL {
		prog, err := overlay.Assemble("kopiperf-acl", aclSource())
		if err != nil {
			return fmt.Errorf("assemble ACL: %w", err)
		}
		if _, _, err := w.NIC.LoadProgram(nic.Ingress, prog); err != nil {
			return fmt.Errorf("load ACL: %w", err)
		}
	}
	if cfg.OwnerRules {
		for _, h := range []filter.Hook{filter.HookOutput, filter.HookInput} {
			for _, c := range cfg.Classes {
				r := &filter.Rule{Proto: filter.Proto(packet.ProtoUDP), OwnerUID: filter.UID(c.UID), Action: filter.ActAccept}
				if err := wd.a.InstallRule(h, r); err != nil {
					return fmt.Errorf("owner rule %v uid %d: %w", h, c.UID, err)
				}
			}
			if err := wd.a.InstallRule(h, &filter.Rule{Action: filter.ActDrop}); err != nil {
				return fmt.Errorf("default drop %v: %w", h, err)
			}
		}
	}
	if cfg.Qdisc {
		q := qos.NewDRR(4096, 1514)
		for _, c := range cfg.Classes {
			q.SetQuantum(c.UID, c.Weight*1514)
		}
		wd.qdisc = q
		if err := wd.a.SetQdisc(q, func(p *packet.Packet) uint32 { return p.Meta.UID }); err != nil {
			return fmt.Errorf("set qdisc: %w", err)
		}
	}
	return nil
}

// aclSource is the cacheable ingress program E14 uses: a 15-rule port
// blocklist that none of the benchmark's traffic matches, a mark rewrite
// and a pass. It uses no meter, update, mirror or notify, so the flow
// cache may memoize its verdicts.
func aclSource() string {
	var b strings.Builder
	b.WriteString("ldf r0, dst_port\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&b, "jeq r0, %d, blocked\n", 9000+i)
	}
	b.WriteString("ldi r2, 7\nsetf mark, r2\npass\nblocked:\ndrop\n")
	return b.String()
}
