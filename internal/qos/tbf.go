package qos

import (
	"norman/internal/packet"
	"norman/internal/sim"
)

// TBF is a token-bucket filter shaping an inner qdisc to Rate bytes/second
// with Burst bytes of depth (the `tc qdisc add ... tbf` of the paper's game
// traffic-shaping scenario).
type TBF struct {
	inner  Qdisc
	rate   float64 // bytes per second
	burst  float64 // bucket depth in bytes
	tokens float64
	last   sim.Time
}

// NewTBF wraps inner with a token bucket of the given rate (bytes/second)
// and burst (bytes).
func NewTBF(inner Qdisc, rate, burst float64) *TBF {
	if inner == nil {
		inner = NewPFIFO(1000)
	}
	if burst < 1514 {
		burst = 1514 // at least one full frame or nothing ever dequeues
	}
	return &TBF{inner: inner, rate: rate, burst: burst, tokens: burst}
}

// Name implements Qdisc.
func (q *TBF) Name() string { return "tbf" }

// Enqueue implements Qdisc.
func (q *TBF) Enqueue(p *packet.Packet, now sim.Time) bool {
	return q.inner.Enqueue(p, now)
}

func (q *TBF) refill(now sim.Time) {
	if now > q.last {
		q.tokens += now.Sub(q.last).Seconds() * q.rate
		if q.tokens > q.burst {
			q.tokens = q.burst
		}
		q.last = now
	}
}

// Dequeue returns the head packet if the bucket currently holds enough
// tokens, consuming them.
func (q *TBF) Dequeue(now sim.Time) (*packet.Packet, bool) {
	q.refill(now)
	head, ok := peek(q.inner, now)
	if !ok {
		return nil, false
	}
	need := float64(head.FrameLen())
	if q.tokens < need {
		return nil, false
	}
	p, ok := q.inner.Dequeue(now)
	if !ok {
		return nil, false
	}
	q.tokens -= need
	return p, true
}

// ReadyAt returns when the head packet's tokens will have accumulated.
func (q *TBF) ReadyAt(now sim.Time) (sim.Time, bool) {
	innerAt, ok := q.inner.ReadyAt(now)
	if !ok {
		return 0, false
	}
	q.refill(now)
	head, ok := peek(q.inner, now)
	if !ok {
		return 0, false
	}
	need := float64(head.FrameLen())
	if q.tokens >= need {
		if innerAt < now {
			innerAt = now
		}
		return innerAt, true
	}
	wait := sim.Duration((need - q.tokens) / q.rate * float64(sim.Second))
	at := now.Add(wait)
	if innerAt > at {
		at = innerAt
	}
	return at, true
}

// Len implements Qdisc.
func (q *TBF) Len() int { return q.inner.Len() }

// peek returns the packet the inner qdisc would dequeue next without
// consuming it. Inner qdiscs used under TBF in this codebase are PFIFO/Prio;
// both expose deterministic heads, so peeking via type switch is exact.
func peek(q Qdisc, now sim.Time) (*packet.Packet, bool) {
	switch t := q.(type) {
	case *PFIFO:
		if t.q.Len() == 0 {
			return nil, false
		}
		return t.q.Peek(), true
	case *Prio:
		for _, b := range t.bands {
			if p, ok := peek(b, now); ok {
				return p, ok
			}
		}
		return nil, false
	default:
		// Fallback: a conservative full-frame estimate.
		if q.Len() == 0 {
			return nil, false
		}
		return &packet.Packet{PayloadLen: 1460}, true
	}
}
