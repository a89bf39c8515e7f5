package nic

import (
	"fmt"

	"norman/internal/mem"
	"norman/internal/overlay"
	"norman/internal/packet"
	"norman/internal/sim"
)

// pipeOccupancy is the pipeline's per-frame occupancy: the datapath is twice
// wire-width, so the pipeline itself never throttles below line rate; overlay
// programs add latency but, being pipelined, no occupancy (§4.1's on-path
// FPGA assumption — this is the charitable hardware model, and E1/E4 verify
// the consequence that interposition costs latency, not throughput).
func (n *NIC) pipeOccupancy(frameLen int) sim.Duration {
	occ := sim.PerByte(frameLen, 2*n.model.WireBW)
	if min := n.model.NICCycles(1); occ < min {
		occ = min
	}
	return occ
}

// dmaCost returns the DMA engine occupancy for moving one descriptor plus
// frameLen payload bytes between host memory and the NIC.
//
// Payload moves with non-allocating streaming writes/reads (how high-rate
// NICs are configured to avoid flooding the LLC), so it costs plain PCIe
// bandwidth. Descriptor ring slots are the DDIO-cached state: on RX the NIC
// must *read* the posted descriptor (to learn the buffer address) and write
// the completion back, so a descriptor that has fallen out of the DDIO ways
// stalls the engine on a DRAM round trip plus the completion writeback.
// Once the active ring working set (connections × ring slots × 64B)
// outgrows the DDIO share of the LLC, every packet pays this — which is the
// paper's >1024-connection cliff (E3). On TX the descriptor read is
// prefetchable ahead of need (the doorbell announces it), so misses cost
// nothing extra.
func (n *NIC) dmaCost(c *Conn, ring *mem.Ring, index uint64, frameLen int, rx bool) sim.Duration {
	cost := n.model.DMA(64 + frameLen)
	if n.llc == nil {
		return cost
	}
	var descHit bool
	if n.llc.Partitioned() {
		// Per-tenant DDIO partition: this tenant's descriptor lines compete
		// only inside its own ways, so a neighbor's ring footprint cannot
		// evict them.
		descHit = n.llc.DMAAccessTenant(ring.SlotAddr(index), c.Meta.Tenant)
	} else {
		descHit = n.llc.DMAAccess(ring.SlotAddr(index))
	}
	if descHit {
		n.DMADescHit++
	} else {
		n.DMADescMiss++
		if rx {
			// A cold posted-descriptor read is a dependent DRAM round
			// trip the engine cannot overlap (it needs the buffer address
			// before it can write), plus the completion writeback.
			cost += sim.Duration(n.model.DRAMAccess).Scale(2.5)
		}
	}
	return cost
}

// stamp applies the connection's kernel-programmed metadata to a packet.
// This is the NIC-resident process view: only connections opened through the
// kernel control plane carry trusted metadata. Packets that arrive already
// trusted (stamped by the in-kernel or sidecar dataplane before reaching a
// kernel-owned NIC queue) keep their attribution — the NIC never downgrades
// a privileged stamp, it only adds one where the connection context has it.
func stamp(c *Conn, p *packet.Packet, now sim.Time) {
	if c.Meta.TrustedMeta || !p.Meta.TrustedMeta {
		p.Meta.UID = c.Meta.UID
		p.Meta.PID = c.Meta.PID
		p.Meta.Command = c.Meta.Command
		p.Meta.CommandID = c.Meta.CommandID
		p.Meta.ConnID = c.ID
		p.Meta.Tenant = c.Meta.Tenant
		p.Meta.TrustedMeta = c.Meta.TrustedMeta
	}
	p.Meta.Enqueued = now
}

// reqKind names one datapath stage that needs a serial NIC server. A
// grant's kind fixes the server, the occupancy it bills and the continuation
// that runs once the slot is owned; the tenant scheduler (tenant.go) only
// decides when that happens.
type reqKind uint8

const (
	reqTxFetch reqKind = iota // DMA engine: TX descriptor+payload fetch
	reqTxPipe                 // pipeline: egress slot for a fetched frame
	reqRxPipe                 // pipeline: ingress slot for a wire frame
	reqRxDMA                  // DMA engine: RX descriptor read + payload store
)

// step names the datapath continuation a scheduled event runs (NIC.step).
// Every steady-state NIC event is a recycled continuation record holding a
// grant, not a closure, so scheduling one allocates nothing.
type step uint8

const (
	stepRxFrame        step = iota // last bit in from the wire: rxFrame
	stepRxDMA                      // pipeline exit, ring slot fixed at pipeline time
	stepRxDMAAtHead                // pipeline exit, ring slot read now (scheduled NIC)
	stepRxComplete                 // RX DMA landed: rxComplete
	stepSlowPath                   // unsteered frame leaves the pipeline for the slow path
	stepTxDrain                    // DMA engine free again: continue the TX drain
	stepTxArrive                   // TX payload across PCIe: txArrive
	stepTxEmit                     // egress pipeline exit: txEmit
	stepTxSent                     // last bit on the wire (scheduled path)
	stepTxSentFreeSlot             // last bit on the wire, releasing a staging slot
)

// grant is one request for a serial NIC server, and the argument of every
// scheduled datapath step. It is a flat value — the scheduler's per-tenant
// queues are rings of grants and the engine events are recycled records
// holding one, so steady-state scheduling allocates nothing.
type grant struct {
	kind  reqKind
	step  step  // the continuation a scheduled event runs
	c     *Conn // nil only for unsteered reqRxPipe frames
	p     *packet.Packet
	index uint64       // ring slot, DMA kinds only
	frame int          // wire frame length
	prod  sim.Time     // TX descriptor Produced stamp (reqTxFetch)
	est   sim.Duration // grantEst, set when the scheduler queues the grant
	enq   sim.Time     // when the request was queued, for wait accounting
}

// tenantID attributes a grant: the steered connection's tenant, or whatever
// the packet already carries (0, the unattributed tenant, for unsteered
// ingress).
func (g grant) tenantID() uint32 {
	if g.c != nil {
		return g.c.Meta.Tenant
	}
	return g.p.Meta.Tenant
}

// request arbitrates one datapath stage. With no tenant scheduler the
// stage's server is acquired FIFO right away; with one, the tenant's DRR ring
// decides when. Either way the continuation the grant's kind names runs once
// the server slot is owned.
func (n *NIC) request(g grant) {
	onPipe := g.kind == reqTxPipe || g.kind == reqRxPipe
	switch {
	case n.tsched != nil && onPipe:
		n.tsched.Pipe.Request(g)
	case n.tsched != nil:
		n.tsched.DMA.Request(g)
	default:
		srv := n.dma
		if onPipe {
			srv = n.pipeline
		}
		_, done := srv.Acquire(n.eng.Now(), n.grantCost(g))
		n.resume(g, done)
	}
}

// grantCost is a grant's actual server occupancy. The DMA kinds touch the
// LLC, so it runs exactly once, at serve time.
func (n *NIC) grantCost(g grant) sim.Duration {
	switch g.kind {
	case reqTxFetch:
		return n.dmaCost(g.c, g.c.TX, g.index, g.frame, false)
	case reqRxDMA:
		return n.dmaCost(g.c, g.c.RX, g.index, g.frame, true)
	}
	return n.pipeOccupancy(g.frame)
}

// grantEst is the occupancy the tenant scheduler accounts when it selects a
// grant: exact for the pipeline, whose occupancy is frame-length-determined,
// and a descriptor hit for the DMA engine — the miss it cannot predict is
// trued up at serve time.
func (n *NIC) grantEst(g grant) sim.Duration {
	if g.kind == reqTxPipe || g.kind == reqRxPipe {
		return n.pipeOccupancy(g.frame)
	}
	return n.model.DMA(64 + g.frame)
}

// resume runs the continuation a grant's kind names, once the server slot
// ending at done is owned.
func (n *NIC) resume(g grant, done sim.Time) {
	switch g.kind {
	case reqTxFetch:
		n.txFetchDone(g, done)
	case reqTxPipe:
		n.egressPipe(g, done)
	case reqRxPipe:
		n.ingressPipe(g, done)
	case reqRxDMA:
		n.rxDMADone(g, done)
	}
}

// schedule runs the datapath step g.step with g at time t, on a recycled
// continuation record.
func (n *NIC) schedule(t sim.Time, s step, g grant) {
	g.step = s
	n.steps.At(t, g)
}

// step is the handler of every scheduled datapath event, dispatched by the
// step the event was scheduled with.
func (n *NIC) step(g grant) {
	switch g.step {
	case stepRxFrame:
		n.rxFrame(g.p)
	case stepRxDMA:
		n.request(g)
	case stepRxDMAAtHead:
		g.index = g.c.RX.Head()
		n.request(g)
	case stepRxComplete:
		n.rxComplete(g.c, g.p, g.index)
	case stepSlowPath:
		n.rxRelease(g.p)
		n.SlowPath(g.p, n.eng.Now())
	case stepTxDrain:
		n.drainTx(g.c)
	case stepTxArrive:
		n.txArrive(g.c, g.p, g.frame, g.prod)
	case stepTxEmit:
		n.txEmit(g.c, g.p)
	case stepTxSent, stepTxSentFreeSlot:
		if g.step == stepTxSentFreeSlot {
			n.txSlotFree()
		}
		if n.OnTransmit != nil {
			n.OnTransmit(g.p, n.eng.Now())
		}
	}
}

// charge bills pipeline-adjacent work (overlay cycles, the flow-cache probe)
// to the packet's tenant when the scheduler is installed, so a tenant that
// runs expensive programs pays for them in its own schedule. It returns d.
func (n *NIC) charge(p *packet.Packet, d sim.Duration) sim.Duration {
	if n.tsched != nil {
		n.tsched.Pipe.Charge(p.Meta.Tenant, d)
	}
	return d
}

// DoorbellTx is the MMIO doorbell: the application (or kernel driver) has
// published descriptors in c's TX ring. The NIC drains the ring through the
// egress pipeline. The caller accounts its own MMIO write cost; everything
// from the doorbell onward is NIC time.
func (n *NIC) DoorbellTx(c *Conn) {
	if c.txDraining {
		return // drain already in flight; it will pick up new descriptors
	}
	c.txDraining = true
	n.drainTx(c)
}

func (n *NIC) drainTx(c *Conn) {
	now := n.eng.Now()
	if c.TX.Empty() {
		c.txDraining = false
		if c.NotifyTx {
			n.pushNotify(c, mem.NotifyTxDrained, now)
		}
		return
	}
	if c.rlRate > 0 {
		// Per-connection pacing: fetch the next descriptor only when the
		// token bucket covers the head frame.
		head, err := c.TX.Peek()
		if err == nil {
			if now > c.rlLast {
				c.rlTokens += now.Sub(c.rlLast).Seconds() * c.rlRate
				if c.rlTokens > c.rlBurst {
					c.rlTokens = c.rlBurst
				}
				c.rlLast = now
			}
			need := float64(head.Pkt.FrameLen())
			if c.rlTokens < need {
				if !c.rlWaiting {
					c.rlWaiting = true
					// The extra nanosecond absorbs float truncation; a
					// zero wait would respin at the same instant forever.
					wait := sim.Duration((need-c.rlTokens)/c.rlRate*float64(sim.Second)) + sim.Nanosecond
					n.eng.After(wait, func() {
						c.rlWaiting = false
						n.drainTx(c)
					})
				}
				return
			}
		}
	}
	if n.txInflight >= n.txWindow {
		// NIC staging buffer full: stall this queue until a slot frees.
		// txDraining stays set so doorbells do not start a second chain.
		if !c.txStalled {
			c.txStalled = true
			n.txStalled = append(n.txStalled, c)
		}
		return
	}
	n.txInflight++
	index := c.TX.Tail()
	d, err := c.TX.Pop()
	if err != nil {
		c.txDraining = false
		n.txInflight--
		return
	}
	p := d.Pkt
	frame := p.FrameLen()
	if n.tracer != nil {
		n.trace(p, now, "ring", "tx_dequeue", fmt.Sprintf("conn=%d slot=%d", c.ID, index))
	}
	if c.rlRate > 0 {
		c.rlTokens -= float64(frame)
	}

	// Fetch descriptor + payload over PCIe. The fetch engine is pipelined:
	// the next descriptor is fetched as soon as the DMA engine frees up,
	// while this packet rides its own latency chain through the pipeline.
	n.request(grant{kind: reqTxFetch, c: c, p: p, index: index, frame: frame, prod: d.Produced})
}

// txFetchDone is the TX-fetch continuation: the drain chain resumes when the
// DMA engine frees, and the frame reaches the egress pipeline after the PCIe
// flight.
func (n *NIC) txFetchDone(g grant, done sim.Time) {
	n.schedule(done, stepTxDrain, grant{c: g.c})
	n.schedule(done.Add(n.model.DMALatency), stepTxArrive, g)
}

// txArrive is the egress step once a fetched descriptor's payload has crossed
// PCIe: outage check, metadata stamp, then a request for a pipeline slot.
func (n *NIC) txArrive(c *Conn, p *packet.Packet, frame int, produced sim.Time) {
	if n.Down(n.eng.Now()) {
		n.TxOutageDrop++ // dataplane outage: frame lost, typed as such
		n.txSlotFree()
		return
	}
	stamp(c, p, produced)
	n.request(grant{kind: reqTxPipe, c: c, p: p, frame: frame})
}

// egressPipe is the egress-pipe continuation and the only place the egress
// overlay runs: the verdict is decided now, and an approved frame leaves the
// pipeline once the granted occupancy plus program latency elapses.
func (n *NIC) egressPipe(g grant, done sim.Time) {
	now := n.eng.Now()
	c, p := g.c, g.p
	lat := sim.Duration(n.model.NICPipeline)
	if n.egress != nil {
		verdict, cycles, _ := n.runProgram(Egress, p, now, c)
		lat += n.charge(p, n.model.NICCycles(cycles))
		if n.tracer != nil {
			n.trace(p, now, "nic", "pipeline_egress", fmt.Sprintf("verdict=%v cycles=%d", verdict, cycles))
		}
		if verdict == overlay.VerdictDrop {
			n.TxDropVerdict++
			n.txSlotFree()
			return
		}
	}
	n.schedule(done.Add(lat), stepTxEmit, grant{c: c, p: p})
}

// txEmit hands a pipeline-approved frame onward: TSO segmentation when
// configured, otherwise straight to the scheduler/wire.
func (n *NIC) txEmit(c *Conn, p *packet.Packet) {
	// TSO: the pipeline cuts oversized TCP segments to wire MSS.
	if c.tsoMSS > 0 && p.TCP != nil && p.PayloadLen > c.tsoMSS {
		// The super-segment holds one staging slot but produces
		// several wire frames, each of which releases one slot on
		// its way out (directly or via the scheduler hand-off);
		// pre-charge the difference so accounting balances.
		nSegs := (p.PayloadLen + c.tsoMSS - 1) / c.tsoMSS
		n.txInflight += nSegs - 1
		for off := 0; off < p.PayloadLen; off += c.tsoMSS {
			seg := p.Clone()
			seg.TCP.Seq = p.TCP.Seq + uint32(off)
			seg.PayloadLen = min(c.tsoMSS, p.PayloadLen-off)
			seg.Payload = nil
			n.sendToWire(seg, c)
		}
		return
	}
	n.sendToWire(p, c)
}

// txSlotFree releases one staging-buffer slot and resumes a stalled queue.
// The stall queue pops by copy+truncate so the backing array is reused and
// never retains pointers to connections already resumed (a `q = q[1:]`
// re-slice would keep every popped *Conn reachable for the array's
// lifetime).
func (n *NIC) txSlotFree() {
	n.txInflight--
	for len(n.txStalled) > 0 {
		c := n.txStalled[0]
		last := len(n.txStalled) - 1
		copy(n.txStalled, n.txStalled[1:])
		n.txStalled[last] = nil
		n.txStalled = n.txStalled[:last]
		c.txStalled = false
		if c.txDraining {
			n.drainTx(c)
			return
		}
	}
}

// sendToWire hands a pipeline-approved frame to the scheduler (or straight
// to the wire when no qdisc is installed).
func (n *NIC) sendToWire(p *packet.Packet, c *Conn) {
	now := n.eng.Now()
	if n.classifier != nil {
		p.Meta.Class = n.classifier(p)
	}
	if n.sched == nil {
		n.transmit(p, now, true)
		return
	}
	// The scheduler (with its own per-class bounds) takes over buffering;
	// the staging slot frees as soon as the packet is classified into it.
	n.sched.Enqueue(p, now)
	n.txSlotFree()
	n.pumpWire()
}

// pumpWire keeps exactly one pending dequeue event against the scheduler.
func (n *NIC) pumpWire() {
	if n.schedPump || n.sched == nil {
		return
	}
	now := n.eng.Now()
	at, ok := n.sched.ReadyAt(now)
	if !ok {
		return
	}
	if free := n.wireTx.FreeAt(); free > at {
		at = free
	}
	if at < now {
		at = now
	}
	n.schedPump = true
	n.eng.At(at, n.pumpStepFn)
}

// pumpStep is pumpWire's pending dequeue. It and the retry below are bound
// once, in New, so the pump schedules no closure per frame.
func (n *NIC) pumpStep() {
	n.schedPump = false
	now := n.eng.Now()
	if p, ok := n.sched.Dequeue(now); ok {
		n.transmit(p, now, false)
		n.pumpWire()
		return
	}
	// No progress (e.g. a shaper's tokens not yet accrued): retry a
	// little later rather than spinning at this instant.
	n.eng.After(100*sim.Nanosecond, n.pumpWireFn)
}

// transmit serializes a frame onto the wire. freeSlot marks packets still
// holding a staging-buffer slot (the unscheduled path).
func (n *NIC) transmit(p *packet.Packet, now sim.Time, freeSlot bool) {
	frame := p.FrameLen()
	_, done := n.wireTx.Acquire(now, n.model.Wire(frame))
	n.TxFrames++
	n.TxBytes += uint64(frame)
	if n.tracer != nil {
		n.trace(p, now, "wire", "tx", fmt.Sprintf("len=%d", frame))
	}
	if n.tap != nil {
		n.tap.Offer(p, now)
	}
	if cn, ok := n.conns[p.Meta.ConnID]; ok {
		cn.TxSent++
	}
	s := stepTxSent
	if freeSlot {
		s = stepTxSentFreeSlot
	}
	n.schedule(done, s, grant{p: p})
}

// InjectTx transmits a control-plane-originated frame (ARP replies, ICMP
// from the kernel): it enters the egress pipeline directly rather than
// through a connection ring — the kernel owns the NIC (§4.4) and needs no
// descriptor to speak.
func (n *NIC) InjectTx(p *packet.Packet) {
	now := n.eng.Now()
	if n.Down(now) {
		n.TxOutageDrop++
		return
	}
	_, pipeDone := n.pipeline.Acquire(now, n.pipeOccupancy(p.FrameLen()))
	n.eng.At(pipeDone.Add(sim.Duration(n.model.NICPipeline)), func() {
		n.transmit(p, n.eng.Now(), false)
	})
}

// DeliverFromWire is the wire-side entry: a frame starts arriving at the
// current engine time and is processed once its last bit is in — ingress is
// serialized at line rate, so no experiment can observe goodput above it.
func (n *NIC) DeliverFromWire(p *packet.Packet) {
	_, arrived := n.wireRx.Acquire(n.eng.Now(), n.model.Wire(p.FrameLen()))
	n.schedule(arrived, stepRxFrame, grant{p: p})
}

func (n *NIC) rxFrame(p *packet.Packet) {
	now := n.eng.Now()
	n.RxWire++
	if n.tracer != nil {
		if p.Meta.Trace == 0 {
			p.Meta.Trace = n.tracer.StampID()
		}
		n.trace(p, now, "nic", "rx_wire", fmt.Sprintf("len=%d", p.FrameLen()))
	}
	if !n.linkUp {
		// The MAC has no carrier: the frame never makes it off the wire.
		// Announced loss (the link state is visible to the health monitor),
		// unlike a silent FIFO overflow.
		n.RxLinkDrop++
		n.trace(p, now, "nic", "rx_link_down", "")
		return
	}
	if n.pauseIntake(p, now) {
		// Generation cutover in progress: the frame waits out the epoch flip
		// in the pause buffer (or became a typed RxPauseDrop) instead of
		// being blackholed mid-upgrade.
		return
	}
	n.rxAdmit(p, now)
}

// rxAdmit is ingress admission past the MAC and pause gate: both the live
// wire path (rxFrame) and the pause-buffer replay (ResumeRx) enter here, so
// a replayed frame takes exactly the path it would have taken live. Steering
// and the metadata stamp come first: the tenant decides whose FIFO share the
// frame occupies, and the overlay's uid/pid/cmd fields come from the
// connection context. Then the FIFO slot, the shed policy, the outage check
// and a request for a pipeline slot.
func (n *NIC) rxAdmit(p *packet.Packet, now sim.Time) {
	c := n.steer(p)
	if c != nil {
		stamp(c, p, now)
	}
	// The FIFO slot: room under the global window, or a place in the
	// tenant's share under the scheduler. rxInflight counts the frame only
	// once it passes admission.
	admit := n.rxInflight < n.rxWindow
	if n.tsched != nil {
		admit = n.tsched.rxAdmit(p.Meta.Tenant)
	}
	if !admit {
		n.RxFifoDrop++
		if n.tracer != nil {
			n.trace(p, now, "nic", "rx_fifo_drop", fmt.Sprintf("tenant=%d", p.Meta.Tenant))
		}
		return
	}
	// Priority-aware shedding: under sustained pressure the installed policy
	// drops low-class ingress here, before the frame can touch the pipeline
	// or the DMA engine — the point is to stop cold descriptors from
	// thrashing the DDIO ways, so the shed must happen upstream of both. An
	// outage hands the frame to the slow path when there is one, and counts
	// it there, not as a drop.
	shed := n.shedPolicy != nil && c != nil && n.shedPolicy(c, p)
	if shed || n.Down(now) {
		if n.tsched != nil {
			n.tsched.rxRelease(p.Meta.Tenant)
		}
		switch {
		case shed:
			n.RxShed++
			if n.tracer != nil {
				n.trace(p, now, "nic", "shed", fmt.Sprintf("conn=%d", c.ID))
			}
		case n.SlowPath != nil:
			n.RxSlowPath++
			n.SlowPath(p, now)
		default:
			n.RxOutageDrop++
		}
		return
	}
	n.rxInflight++
	if n.tap != nil {
		n.tap.Offer(p, now)
	}
	n.request(grant{kind: reqRxPipe, c: c, p: p, frame: p.FrameLen()})
}

// ingressPipe is the ingress-pipe continuation and the only copy of classify:
// flow-cache probe, else the overlay run with its trap fallback and cache
// install, then the verdict. A steered frame goes on to the RX DMA; an
// unsteered one to the slow path, or it is dropped.
func (n *NIC) ingressPipe(g grant, done sim.Time) {
	now := n.eng.Now()
	c, p := g.c, g.p
	lat := sim.Duration(n.model.NICPipeline)
	if n.ingress != nil {
		if e, hit := n.fcLookup(p, c); hit {
			// Fast path: the memoized verdict and rewrite apply at
			// single-lookup cost — no overlay interpretation.
			lat += n.charge(p, n.model.NICCycles(1))
			p.Meta.Mark = e.mark
			p.Meta.Class = e.class
			if n.tracer != nil {
				n.trace(p, now, "nic", "flowcache_hit", fmt.Sprintf("verdict=%v hits=%d", e.verdict, e.hits))
			}
			if e.verdict == overlay.VerdictDrop {
				n.RxDropVerdict++
				n.rxRelease(p)
				return
			}
		} else {
			verdict, cycles, trapped := n.runProgram(Ingress, p, now, c)
			n.IngressProgCycles += uint64(cycles)
			cyc := n.model.NICCycles(cycles)
			if n.fc != nil && n.ingressCacheable && c != nil {
				cyc += n.model.NICCycles(1) // the probe that missed
			}
			lat += n.charge(p, cyc)
			if n.tracer != nil {
				n.trace(p, now, "nic", "pipeline_ingress", fmt.Sprintf("verdict=%v cycles=%d", verdict, cycles))
			}
			n.fcInstall(p, c, verdict, trapped)
			if verdict == overlay.VerdictDrop {
				n.RxDropVerdict++
				n.rxRelease(p)
				return
			}
		}
	}

	at := done.Add(lat)
	if c == nil {
		if n.SlowPath != nil {
			n.RxSlowPath++
			n.schedule(at, stepSlowPath, grant{p: p})
		} else {
			n.RxDropNoSteer++
			n.rxRelease(p)
		}
		return
	}
	frame := g.frame
	if n.tsched == nil {
		// The unscheduled DMA request fires at max(pipeline exit,
		// dma.FreeAt()) and stores into the ring slot that is next now, both
		// sampled at pipeline time; the scheduler requests at pipeline exit
		// and takes the slot then. Each choice fixes the DMA reservation order
		// and the LLC access order its recorded tables were measured with, so
		// the two stay distinct.
		if free := n.dma.FreeAt(); free > at {
			at = free
		}
		n.schedule(at, stepRxDMA, grant{kind: reqRxDMA, c: c, p: p, index: c.RX.Head(), frame: frame})
		return
	}
	n.schedule(at, stepRxDMAAtHead, grant{kind: reqRxDMA, c: c, p: p, frame: frame})
}

// rxDMADone is the RX-DMA continuation: the stored frame becomes host
// visible after the PCIe flight.
func (n *NIC) rxDMADone(g grant, done sim.Time) {
	n.schedule(done.Add(n.model.DMALatency), stepRxComplete, g)
}

// rxRelease returns the ingress FIFO slot(s) a frame held: the global
// counter always, the owning tenant's share when the scheduler is installed.
func (n *NIC) rxRelease(p *packet.Packet) {
	n.rxInflight--
	if n.tsched != nil {
		n.tsched.rxRelease(p.Meta.Tenant)
	}
}

// rxComplete finishes an RX DMA: the descriptor completion is host-visible,
// so the frame either lands in the ring or becomes a counted ring drop.
func (n *NIC) rxComplete(c *Conn, p *packet.Packet, index uint64) {
	now := n.eng.Now()
	n.rxRelease(p)
	if err := c.RX.Push(mem.Desc{Pkt: p, Produced: p.Meta.Enqueued}); err != nil {
		n.RxDropRing++
		c.RxDropped++
		if n.tracer != nil {
			n.trace(p, now, "ring", "rx_drop_full", fmt.Sprintf("conn=%d", c.ID))
		}
		return
	}
	c.RxDelivered++
	if n.tracer != nil {
		n.trace(p, now, "ring", "rx_enqueue", fmt.Sprintf("conn=%d slot=%d", c.ID, index))
	}
	if c.NotifyRx {
		n.pushNotify(c, mem.NotifyRxReady, now)
	}
	if n.OnRxDeliver != nil {
		n.OnRxDeliver(c, now)
	}
}

// steer resolves the destination connection for an inbound frame.
func (n *NIC) steer(p *packet.Packet) *Conn {
	if k, ok := p.Flow(); ok {
		if id, ok := n.steering[k]; ok {
			if c, ok := n.conns[id]; ok {
				return c
			}
		}
		// Also try the destination-side normalized key (server side of a
		// flow steered by local tuple).
		if id, ok := n.steering[k.Reverse()]; ok {
			if c, ok := n.conns[id]; ok {
				return c
			}
		}
	}
	if c := n.rssSteer(p); c != nil {
		return c
	}
	if n.defaultConn != 0 {
		if c, ok := n.conns[n.defaultConn]; ok {
			return c
		}
	}
	return nil
}
