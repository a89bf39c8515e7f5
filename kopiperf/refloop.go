package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host reference loop measures how fast the shared host runs right
// now. On the reference VM the neighbours' load changes the speed of
// memory-bound code by up to a third for minutes at a time, in CPU time,
// not only in steal. The program's cost per packet is therefore reported
// in iterations of this loop, timed between the repetitions and set-ups
// of the same run, instead of in nanoseconds alone. One sample varies by
// about 15% from the next, so a run takes three per repetition.
//
// One iteration is a random read-modify-write into a 16 MiB buffer. That
// is far past a core's L2 and about the size of the program's heap, so
// like the program it runs from the last-level cache the neighbours
// share. The buffer is mapped outside the Go heap: the garbage collector
// neither scans nor counts it, so GC pacing and heap_peak_mb stay the
// program's own.
const (
	refWords = 2 << 20   // 16 MiB of uint64
	refIters = 1_600_000 // one sample, about 35 ms on the reference host
)

type refLoop struct {
	buf   []uint64
	mem   []byte
	x     uint64
	cpu   time.Duration // CPU time of every sample
	iters int
	sink  uint64
}

// newRefLoop maps the buffer and touches every page once, so no sample
// pays a page fault.
func newRefLoop() (*refLoop, error) {
	mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("map the reference buffer: %w", err)
	}
	l := &refLoop{mem: mem, x: 88172645463325252}
	l.buf = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords)
	for i := range l.buf {
		l.buf[i] = uint64(i)
	}
	return l, nil
}

// sample times one fixed batch of iterations.
func (l *refLoop) sample() {
	t0 := processCPU()
	x, s, b := l.x, l.sink, l.buf
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		s += b[j]
		b[j] = s
	}
	l.x, l.sink = x, s
	l.cpu += processCPU() - t0
	l.iters += refIters
}

// nsPerIter is the mean CPU time of one iteration over every sample.
func (l *refLoop) nsPerIter() float64 { return nsPer(l.cpu, l.iters) }

func (l *refLoop) close() { syscall.Munmap(l.mem) }
