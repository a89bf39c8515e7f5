package mem

import (
	"norman/internal/sim"
)

// NotifyKind distinguishes the two notification types of §4.3: packets were
// added to an RX queue (unblocks receive) or a TX queue drained below its
// threshold (unblocks send).
type NotifyKind uint8

// Notification kinds.
const (
	NotifyRxReady NotifyKind = iota
	NotifyTxDrained
)

func (k NotifyKind) String() string {
	switch k {
	case NotifyRxReady:
		return "rx-ready"
	case NotifyTxDrained:
		return "tx-drained"
	default:
		return "unknown"
	}
}

// Notification is one entry in a process's shared notification queue: the
// NIC appends these when a connection is configured for notify mode, and the
// kernel control plane consumes them to wake blocked threads.
type Notification struct {
	ConnID uint64
	Kind   NotifyKind
	At     sim.Time
}

// NotifyQueue is a bounded queue shared between the NIC (producer), and the
// owning process and the kernel (consumers). One exists per process.
type NotifyQueue struct {
	entries  sim.Queue[Notification]
	capacity int
	dropped  uint64
	pushed   uint64
}

// NewNotifyQueue creates a queue holding at most capacity entries.
func NewNotifyQueue(capacity int) *NotifyQueue {
	if capacity <= 0 {
		capacity = 1024
	}
	return &NotifyQueue{capacity: capacity}
}

// Push appends a notification; when full the notification is dropped and
// counted (the consumer must rescan rings after an overflow, as real
// notification schemes do).
func (q *NotifyQueue) Push(n Notification) bool {
	if q.entries.Len() >= q.capacity {
		q.dropped++
		return false
	}
	q.entries.Push(n)
	q.pushed++
	return true
}

// Pop removes and returns the oldest notification.
func (q *NotifyQueue) Pop() (Notification, bool) {
	if q.entries.Len() == 0 {
		return Notification{}, false
	}
	return q.entries.Pop(), true
}

// Len returns the number of queued notifications.
func (q *NotifyQueue) Len() int { return q.entries.Len() }

// Overflowed reports whether any notification has been dropped.
func (q *NotifyQueue) Overflowed() bool { return q.dropped > 0 }

// Counters returns cumulative pushed and dropped counts.
func (q *NotifyQueue) Counters() (pushed, dropped uint64) { return q.pushed, q.dropped }
