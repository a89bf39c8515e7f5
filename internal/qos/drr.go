package qos

import (
	"norman/internal/packet"
	"norman/internal/sim"
)

// DRR implements deficit round robin: each active class is visited in turn
// and may send up to its accumulated deficit (incremented by its quantum per
// round). DRR approximates fair queueing with O(1) dequeue, which is why
// hardware schedulers favor it; the E6 bench compares its fairness against
// WFQ under identical load.
type DRR struct {
	classes        map[uint32]*drrClass
	active         sim.Queue[uint32] // round-robin order of classes with queued packets
	limit          int
	nitems         int
	defaultQuantum int
	stats          Stats
	perClass       map[uint32]*Stats
}

type drrClass struct {
	id      uint32
	quantum int
	deficit int
	q       sim.Queue[*packet.Packet]
	queued  bool
}

// NewDRR creates a DRR qdisc bounded to limit total packets; classes default
// to the given quantum (bytes per round).
func NewDRR(limit, quantum int) *DRR {
	if limit <= 0 {
		limit = 4096
	}
	if quantum <= 0 {
		quantum = 1514
	}
	return &DRR{
		classes:        make(map[uint32]*drrClass),
		perClass:       make(map[uint32]*Stats),
		limit:          limit,
		defaultQuantum: quantum,
	}
}

// SetQuantum configures a class's per-round byte quantum (its weight).
func (q *DRR) SetQuantum(class uint32, quantum int) {
	if quantum < 1 {
		quantum = 1
	}
	q.class(class).quantum = quantum
}

func (q *DRR) class(id uint32) *drrClass {
	c, ok := q.classes[id]
	if !ok {
		c = &drrClass{id: id, quantum: q.defaultQuantum}
		q.classes[id] = c
	}
	return c
}

func (q *DRR) classStats(id uint32) *Stats {
	s, ok := q.perClass[id]
	if !ok {
		s = &Stats{}
		q.perClass[id] = s
	}
	return s
}

// Name implements Qdisc.
func (q *DRR) Name() string { return "drr" }

// Enqueue implements Qdisc. As with WFQ, each class is bounded to its share
// of the buffer so a slow class cannot monopolize it under overload.
func (q *DRR) Enqueue(p *packet.Packet, _ sim.Time) bool {
	c := q.class(p.Meta.Class)
	perClass := q.limit / len(q.classes)
	if perClass < 1 {
		perClass = 1
	}
	if q.nitems >= q.limit || c.q.Len() >= perClass {
		q.stats.DropPackets++
		q.classStats(p.Meta.Class).DropPackets++
		return false
	}
	c.q.Push(p)
	if !c.queued {
		c.queued = true
		q.active.Push(c.id)
	}
	q.nitems++
	q.stats.EnqPackets++
	q.stats.EnqBytes += uint64(p.FrameLen())
	cs := q.classStats(c.id)
	cs.EnqPackets++
	cs.EnqBytes += uint64(p.FrameLen())
	return true
}

// Dequeue implements Qdisc.
func (q *DRR) Dequeue(_ sim.Time) (*packet.Packet, bool) {
	if q.nitems == 0 {
		return nil, false
	}
	for {
		c := q.classes[q.active.Peek()]
		if c.q.Len() == 0 {
			// Class drained since being queued; drop from the round.
			c.queued = false
			c.deficit = 0
			q.active.Pop()
			continue
		}
		head := c.q.Peek()
		need := head.FrameLen()
		if c.deficit < need {
			// Give the class its quantum and rotate to the back.
			c.deficit += c.quantum
			q.active.Push(q.active.Pop())
			continue
		}
		c.deficit -= need
		c.q.Pop()
		q.nitems--
		if c.q.Len() == 0 {
			c.queued = false
			c.deficit = 0
			q.active.Pop()
		}
		q.stats.DeqPackets++
		q.stats.DeqBytes += uint64(need)
		cs := q.classStats(c.id)
		cs.DeqPackets++
		cs.DeqBytes += uint64(need)
		return head, true
	}
}

// ReadyAt implements Qdisc: DRR is work-conserving.
func (q *DRR) ReadyAt(now sim.Time) (sim.Time, bool) {
	if q.nitems == 0 {
		return 0, false
	}
	return now, true
}

// Len implements Qdisc.
func (q *DRR) Len() int { return q.nitems }

// Stats returns aggregate counters.
func (q *DRR) Stats() Stats { return q.stats }

// ClassStats returns counters for one class.
func (q *DRR) ClassStats(class uint32) Stats {
	if s, ok := q.perClass[class]; ok {
		return *s
	}
	return Stats{}
}
