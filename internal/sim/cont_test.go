package sim

import (
	"math/rand"
	"testing"
)

// TestContinuationOrderMatchesClosures schedules the same random workload —
// events at random times, some of which schedule follow-ups — once through
// closures and once through a Pool, and requires the identical firing order
// and clock: a record takes exactly the (at, seq) slot the closure took.
func TestContinuationOrderMatchesClosures(t *testing.T) {
	type ev struct {
		id    int
		delay Duration // follow-up delay; 0 = none
	}
	rng := rand.New(rand.NewSource(7))
	var evs []ev
	var ats []Time
	for i := 0; i < 500; i++ {
		evs = append(evs, ev{id: i, delay: Duration(rng.Intn(3)) * 5})
		ats = append(ats, Time(rng.Intn(50)))
	}

	closures := func() ([]int, Time) {
		e := NewEngine()
		var got []int
		var fire func(v ev)
		fire = func(v ev) {
			got = append(got, v.id)
			if v.delay > 0 {
				next := ev{id: v.id + 1000}
				e.After(v.delay, func() { fire(next) })
			}
		}
		for i, v := range evs {
			v := v
			e.At(ats[i], func() { fire(v) })
		}
		return got, e.Run()
	}
	records := func() ([]int, Time, *Pool[ev]) {
		e := NewEngine()
		var got []int
		var p *Pool[ev]
		p = NewPool(e, func(v ev) {
			got = append(got, v.id)
			if v.delay > 0 {
				p.At(e.Now().Add(v.delay), ev{id: v.id + 1000})
			}
		})
		for i, v := range evs {
			p.At(ats[i], v)
		}
		return got, e.Run(), p
	}

	want, wantEnd := closures()
	got, end, p := records()
	if end != wantEnd || len(got) != len(want) {
		t.Fatalf("records: %d events ending at %v, closures: %d ending at %v", len(got), end, len(want), wantEnd)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: record fired %d, closure fired %d", i, got[i], want[i])
		}
	}
	if p.Live() != 0 {
		t.Fatalf("%d records still live after the engine drained", p.Live())
	}
}

// TestContinuationReleaseBeforeRun checks the lifetime rule: the record is
// back on the free list before the handler runs, so a handler that
// reschedules (a two-stage continuation) reuses its own record.
func TestContinuationReleaseBeforeRun(t *testing.T) {
	e := NewEngine()
	var p *Pool[int]
	stages := 0
	p = NewPool(e, func(stage int) {
		stages++
		if p.Live() != 0 {
			t.Fatalf("stage %d runs while its record is still live", stage)
		}
		if stage < 5 {
			p.At(e.Now()+1, stage+1)
		}
	})
	p.At(0, 1)
	e.Run()
	if stages != 5 || p.Made() != 1 {
		t.Fatalf("%d stages over %d records, want 5 over 1", stages, p.Made())
	}
}

// TestContinuationPoison checks the always-on reuse check: a record taken
// off the free list while still scheduled, and a record fired while free,
// both panic.
func TestContinuationPoison(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	p := NewPool(e, func(int) {})
	p.At(1, 1)
	e.Run()
	r := p.free[0]
	mustPanic("fired while free", r.fire)

	p.At(2, 2) // r is scheduled again
	p.free = append(p.free, r)
	mustPanic("scheduled twice", func() { p.At(3, 3) })
}

// TestContinuationAllocFree pins a warmed pool at zero allocations: the
// engine's heap slice and the free list have grown, and every At/fire cycle
// reuses them.
func TestContinuationAllocFree(t *testing.T) {
	e := NewEngine()
	sum := 0
	var p *Pool[[2]int]
	p = NewPool(e, func(a [2]int) {
		sum += a[0]
		if a[1] > 0 {
			p.At(e.Now()+3, [2]int{a[0], a[1] - 1})
		}
	})
	cycle := func() {
		for i := 0; i < 64; i++ {
			p.At(e.Now()+Time(i%7), [2]int{i, 2})
		}
		e.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warmed pool allocates %.2f per cycle", allocs)
	}
	if p.Live() != 0 || sum == 0 {
		t.Fatalf("live %d, sum %d", p.Live(), sum)
	}
}

// TestQueueFIFOAndReuse drives a Queue through growth, wrap-around and
// drain-refill cycles against a slice model, and pins the warmed queue at
// zero allocations.
func TestQueueFIFOAndReuse(t *testing.T) {
	var q Queue[int]
	var model []int
	rng := rand.New(rand.NewSource(3))
	next := 0
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) != 0 || len(model) == 0 {
			q.Push(next)
			model = append(model, next)
			next++
			continue
		}
		if got := q.Pop(); got != model[0] {
			t.Fatalf("step %d: popped %d, want %d", i, got, model[0])
		}
		model = model[1:]
		if q.Len() != len(model) {
			t.Fatalf("step %d: len %d, want %d", i, q.Len(), len(model))
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	cycle := func() {
		for i := 0; i < 100; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warmed queue allocates %.2f per drain-refill cycle", allocs)
	}
}
