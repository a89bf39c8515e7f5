package arch

import (
	"norman/internal/filter"
	"norman/internal/mem"
	"norman/internal/packet"
	"norman/internal/sim"
)

// base carries the bookkeeping every architecture shares.
type base struct {
	w       *World
	deliver DeliverFunc
	conns   map[uint64]*Conn // by kernel conn id

	// steps recycles the continuation records of every scheduled host-side
	// packet step (base.step); batches is the free stack of SendBatch's
	// staging slices.
	steps   *sim.Pool[hostArg]
	batches [][]*packet.Packet

	// Drops on the application TX path (ring full, no buffer).
	TxAppDrops uint64
}

// initBase sets b up on w. It must run on b's final location: the step pool
// is bound to b.
func (b *base) initBase(w *World) {
	b.w = w
	b.conns = map[uint64]*Conn{}
	b.steps = sim.NewPool(w.Eng, b.step)
}

// hostStep names the host-side continuation a scheduled hostArg runs.
type hostStep uint8

const (
	hostAppWork hostStep = iota // the app noticed the packet: charge its work on the app core
	hostUpcall                  // app work done: hand the packet to the application
	hostTxPush                  // Send's staging done: post the descriptor, ring the doorbell
	hostTxBatch                 // SendBatch's staging done: post the burst, ring once
	hostDrain                   // the kernel's wake landed: drain the connection's RX ring
)

// hostArg is the argument of every scheduled host-side step.
type hostArg struct {
	step  hostStep
	c     *Conn
	p     *packet.Packet
	cost  sim.Duration     // app work, hostAppWork
	batch []*packet.Packet // hostTxBatch, from b.batches
}

// step is the handler of every scheduled host-side event.
func (b *base) step(a hostArg) {
	now := b.w.Eng.Now()
	switch a.step {
	case hostAppWork:
		_, done := b.w.Core(a.c.Info.PID).Acquire(now, a.cost)
		b.steps.At(done, hostArg{step: hostUpcall, c: a.c, p: a.p})
	case hostUpcall:
		b.upcall(a.c, a.p, now)
	case hostTxPush:
		if b.postTx(a.c, a.p, now) {
			b.w.NIC.DoorbellTx(a.c.NC)
		}
	case hostTxBatch:
		for i, p := range a.batch {
			b.postTx(a.c, p, now)
			a.batch[i] = nil
		}
		b.batches = append(b.batches, a.batch[:0])
		b.w.NIC.DoorbellTx(a.c.NC)
	case hostDrain:
		b.drainBlocked(a.c)
	}
}

// postTx stages one descriptor in c's TX ring, counting an application drop
// when the ring is full.
func (b *base) postTx(c *Conn, p *packet.Packet, now sim.Time) bool {
	if err := c.NC.TX.Push(mem.Desc{Pkt: p, Produced: now}); err != nil {
		b.TxAppDrops++
		b.trace(p, now, "ring", "tx_drop_full", "")
		return false
	}
	b.trace(p, now, "ring", "tx_enqueue", "")
	return true
}

// World implements Arch.
func (b *base) World() *World { return b.w }

// SetDeliver implements Arch.
func (b *base) SetDeliver(fn DeliverFunc) { b.deliver = fn }

// upcall hands a packet to the application.
func (b *base) upcall(c *Conn, p *packet.Packet, at sim.Time) {
	c.Delivered++
	c.LastDeliver = at
	b.trace(p, at, "host", "rx_deliver", "")
	if b.deliver != nil {
		b.deliver(c, p, at)
	}
}

// traceStamp assigns a lifecycle trace ID to p at its first interposition
// point. No-op when tracing is off or p is already stamped (clones and
// retransmits keep their origin's ID).
func (b *base) traceStamp(p *packet.Packet) {
	if b.w.Tracer != nil && p.Meta.Trace == 0 {
		p.Meta.Trace = b.w.Tracer.StampID()
	}
}

// trace appends a span event for p when it carries a trace ID. One branch
// when tracing is off.
func (b *base) trace(p *packet.Packet, at sim.Time, layer, point, note string) {
	if b.w.Tracer == nil || p.Meta.Trace == 0 {
		return
	}
	b.w.Tracer.Record(p.Meta.Trace, at, layer, point, note)
}

// appRxCost is the application-side cost of consuming one descriptor:
// fixed ring bookkeeping, the descriptor-line touch (charged against the
// LLC — it usually hits the line DDIO just wrote), and a header fetch from
// the streamed payload (a partially hidden memory access). Ring-based
// consumption is zero-copy (§4.2: "abstractions that prevent unnecessary
// copies"), so the full payload is never copied.
// slotAddr must be the descriptor slot the packet occupied, captured before
// the Pop advanced the tail.
func (b *base) appRxCost(c *Conn, p *packet.Packet, slotAddr uint64) sim.Duration {
	m := b.w.Model
	cost := m.Cycles(40)
	if c.NC != nil {
		cost += b.memTouch(slotAddr, 64)
		cost += sim.Duration(m.DRAMAccess) / 2 // header fetch, OoO-overlapped
	} else {
		cost += m.Copy(p.FrameLen())
	}
	return cost
}

// memTouch charges a CPU access of n bytes at addr against the LLC: a
// streaming copy cost plus a penalty scaled by the miss fraction.
func (b *base) memTouch(addr uint64, n int) sim.Duration {
	m := b.w.Model
	baseCost := m.Copy(n)
	if b.w.LLC == nil {
		return baseCost
	}
	hits, lines := b.w.LLC.Touch(addr, n, false)
	if lines == 0 {
		return baseCost
	}
	missFrac := float64(lines-hits) / float64(lines)
	return baseCost + sim.Duration(m.DRAMAccess).Scale(missFrac) + baseCost.Scale(0.5*missFrac)
}

// deliverPolled models a poll-mode app noticing and consuming a packet: the
// core is poll-pinned (accounted by MarkPoller), so we charge only the
// processing occupancy and half a poll iteration of discovery latency.
func (b *base) deliverPolled(c *Conn, p *packet.Packet, now sim.Time, appCost sim.Duration) {
	core := b.w.Core(c.Info.PID)
	start := now.Add(sim.Duration(b.w.Model.PollIteration) / 2)
	if free := core.FreeAt(); free > start {
		start = free
	}
	b.steps.At(start, hostArg{step: hostAppWork, c: c, p: p, cost: appCost})
}

// deliverWoken models a blocked app being woken by the kernel: context
// switch on the app core, then processing.
func (b *base) deliverWoken(c *Conn, p *packet.Packet, wakeAt sim.Time, appCost sim.Duration) {
	b.steps.At(wakeAt, hostArg{step: hostAppWork, c: c, p: p, cost: sim.Duration(b.w.Model.ContextSwitch) + appCost})
}

// drainBlocked consumes every pending descriptor for a woken connection,
// charging per-packet app costs sequentially on its core.
func (b *base) drainBlocked(c *Conn) {
	core := b.w.Core(c.Info.PID)
	for {
		slotAddr := c.NC.RX.TailAddr()
		desc, err := c.NC.RX.Pop()
		if err != nil {
			return
		}
		p := desc.Pkt
		_, done := core.Acquire(b.w.Eng.Now(), b.appRxCost(c, p, slotAddr))
		b.steps.At(done, hostArg{step: hostUpcall, c: c, p: p})
	}
}

// softFilterCost is the CPU time a software interposition layer spends
// evaluating a chain: fixed protocol bookkeeping plus per-rule work.
func softFilterCost(m interface{ Cycles(int) sim.Duration }, res filter.Result) sim.Duration {
	return m.Cycles(15 * res.RulesEvaluated)
}

// pinger tracks in-flight kernel pings (icmp id -> completion).
type pinger struct {
	nextID  uint16
	pending map[uint16]pendingPing
}

type pendingPing struct {
	sent sim.Time
	done func(sim.Duration, bool)
}

// start registers a new ping and returns its id.
func (pg *pinger) start(now sim.Time, done func(sim.Duration, bool)) uint16 {
	if pg.pending == nil {
		pg.pending = map[uint16]pendingPing{}
	}
	pg.nextID++
	pg.pending[pg.nextID] = pendingPing{sent: now, done: done}
	return pg.nextID
}

// complete resolves a ping by id; duplicate replies are ignored.
func (pg *pinger) complete(id uint16, now sim.Time) {
	p, ok := pg.pending[id]
	if !ok {
		return
	}
	delete(pg.pending, id)
	if p.done != nil {
		p.done(now.Sub(p.sent), true)
	}
}

// expire times out a ping by id.
func (pg *pinger) expire(id uint16) {
	p, ok := pg.pending[id]
	if !ok {
		return
	}
	delete(pg.pending, id)
	if p.done != nil {
		p.done(0, false)
	}
}

// pingTimeout is how long the kernel waits for an echo reply.
const pingTimeout = 100 * sim.Millisecond

// connFor maps a kernel connection id to the architecture handle.
func (b *base) connFor(id uint64) (*Conn, bool) {
	c, ok := b.conns[id]
	return c, ok
}

// register records a new handle.
func (b *base) register(c *Conn) { b.conns[c.Info.ID] = c }

// unregister removes a handle.
func (b *base) unregister(c *Conn) { delete(b.conns, c.Info.ID) }
