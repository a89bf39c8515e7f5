package sim

import "fmt"

// Pool is a free list of continuation records: the allocation-free way to
// schedule a per-packet event. A closure passed to Engine.At is a fresh heap
// object on every call; a record is allocated once, with its fire func bound
// at creation, and then recycled for the life of the pool.
//
// At(t, arg) takes a free record, stores arg in it and schedules the record's
// fire func through Engine.At, so the event takes exactly the (at, seq) slot
// a closure scheduled at the same point would take and the event order does
// not change. When the event fires, the record copies its argument out,
// clears it, returns itself to the free list and only then runs the handler.
// The handler therefore owns nothing but its copy of the argument, and it may
// schedule on the same pool again (a two-stage continuation reuses the record
// it just released).
//
// Reuse is checked on every call, not behind a debug switch: taking a record
// that is not free (scheduled twice) or firing one that is free panics. A
// pool belongs to one engine and is no more concurrency-safe than it is.
type Pool[A any] struct {
	eng  *Engine
	run  func(A)
	free []*record[A]
	made int // records ever allocated
}

// record is one reusable continuation: its argument, its bound fire func and
// a state bit that catches double scheduling and stray fires.
type record[A any] struct {
	pool      *Pool[A]
	arg       A
	fire      func()
	scheduled bool
}

// NewPool returns an empty pool whose records run handler on eng.
func NewPool[A any](eng *Engine, handler func(A)) *Pool[A] {
	if eng == nil || handler == nil {
		panic("sim: NewPool needs an engine and a handler")
	}
	return &Pool[A]{eng: eng, run: handler}
}

// At schedules the pool's handler to run with arg at absolute time t.
func (p *Pool[A]) At(t Time, arg A) {
	var r *record[A]
	if n := len(p.free) - 1; n >= 0 {
		r = p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		if r.scheduled {
			panic("sim: continuation record scheduled twice")
		}
	} else {
		r = &record[A]{pool: p}
		r.fire = r.fireOnce
		p.made++
	}
	r.arg = arg
	r.scheduled = true
	p.eng.At(t, r.fire)
}

// fireOnce is the record's event callback: copy out, release, then run.
func (r *record[A]) fireOnce() {
	if !r.scheduled {
		panic(fmt.Sprintf("sim: continuation record fired while free (pool has %d of %d free)", len(r.pool.free), r.pool.made))
	}
	arg := r.arg
	var zero A
	r.arg = zero // the free list keeps no packet or connection alive
	r.scheduled = false
	p := r.pool
	p.free = append(p.free, r)
	p.run(arg)
}

// Live returns the number of records scheduled and not yet fired. Once the
// engine has drained, a pool whose every event fired reports 0.
func (p *Pool[A]) Live() int { return p.made - len(p.free) }

// Made returns the number of records the pool has allocated: its peak
// number of simultaneously scheduled events.
func (p *Pool[A]) Made() int { return p.made }
