package sim

// Queue is a FIFO over a circular buffer that is kept once grown, so a queue
// that drains and refills allocates nothing in steady state. It is the one
// queue the models' per-packet FIFOs share: the NIC tenant scheduler's grant
// and round-robin rings, the egress qdiscs' packet queues and the
// notification queues. (A `q = q[1:]` re-slice leaves no room at the front
// of the array, so every append after a drain reallocates; a queue that is
// never empty grows without bound.) The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v, doubling the buffer when it is full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Peek returns the oldest element. The queue must not be empty.
func (q *Queue[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek on an empty queue")
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest element. The queue must not be empty.
// The vacated slot is zeroed, so the buffer keeps nothing reachable.
func (q *Queue[T]) Pop() T {
	v := q.Peek()
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
