package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// This file attributes CPU-profile samples and allocation-profile records
// to the repo's layers. The module is standard-library only, so it carries
// its own reader for the few fields of the pprof protobuf it needs.

// Layers outside the repo's packages.
const (
	layerAlloc = "runtime.alloc" // the allocator, wherever it was called from
	layerGC    = "runtime.gc"    // GC workers, assists, sweeping, write barriers
	layerBench = "bench"         // the benchmark's own frames
	layerOther = "other"         // anything else
)

// gcFuncs are name prefixes of runtime functions doing garbage-collection
// work; a sample with any of them on its stack is GC time.
var gcFuncs = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.sweepone", "runtime.wbBuf", "runtime._GC", "runtime.(*mspan).sweep", "runtime.(*gcWork)",
	"runtime.(*gcControllerState)", "runtime.(*sweepLocked)", "runtime.(*mheap).reclaim",
}

// allocFuncs are name prefixes of the allocator's entry points; a sample
// with one of them on its stack (and no GC frame) is allocation time.
var allocFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.newarray", "runtime.makemap",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf names the layer a function belongs to: the package under
// norman/internal (with the NIC's flow cache and tenant scheduler split
// out), bench for the benchmark's own package, "" for anything else.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return layerBench
	}
	rest, ok := strings.CutPrefix(fn, "norman/internal/")
	if !ok {
		return ""
	}
	i := strings.IndexAny(rest, "./")
	if i < 0 {
		return rest
	}
	pkg, sym := rest[:i], rest[i+1:]
	if pkg == "nic" {
		switch {
		case strings.HasPrefix(sym, "(*FlowCache)."):
			return "nic.flowcache"
		case strings.HasPrefix(sym, "(*TenantSched)."), strings.HasPrefix(sym, "(*TenantDRR)."):
			return "nic.tenant"
		}
	}
	return pkg
}

// classify attributes one stack, leaf first, to a layer: GC work, then
// the allocator, then the innermost repo or benchmark frame — so map
// hashing and copies count toward the package that called them — and
// other when there is none.
func classify(frames []string) string {
	for _, f := range frames {
		if hasPrefixAny(f, gcFuncs) {
			return layerGC
		}
	}
	for _, f := range frames {
		if hasPrefixAny(f, allocFuncs) {
			return layerAlloc
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	return layerOther
}

// parentLayer folds a sub-layer into the package it belongs to.
func parentLayer(l string) string {
	if strings.HasPrefix(l, "nic.") {
		return "nic"
	}
	return l
}

// cpuProfile is the part of a pprof CPU profile the attribution needs.
type cpuProfile struct {
	stacks [][]string // function names per sample, leaf first
	values []int64    // CPU nanoseconds per sample
}

// attribute sums sample values by layer.
func (p *cpuProfile) attribute(into map[string]int64) {
	for i, st := range p.stacks {
		into[classify(st)] += p.values[i]
	}
}

// parseCPUProfile decodes a gzipped pprof profile as runtime/pprof writes
// it: samples with location ids and values, locations with (possibly
// inlined) lines, functions and the string table.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	top := pb{b: raw}
	for top.more() {
		field, wire := top.key()
		switch {
		case field == 2 && wire == 2: // Sample
			m := pb{b: top.bytes()}
			var s sample
			for m.more() {
				f, wt := m.key()
				switch f {
				case 1:
					s.locs = m.uints(wt, s.locs)
				case 2:
					for _, v := range m.uints(wt, nil) {
						s.values = append(s.values, int64(v))
					}
				default:
					m.skip(wt)
				}
			}
			samples = append(samples, s)
		case field == 4 && wire == 2: // Location
			m := pb{b: top.bytes()}
			var id uint64
			var fns []uint64
			for m.more() {
				f, wt := m.key()
				switch {
				case f == 1 && wt == 0:
					id = m.varint()
				case f == 4 && wt == 2: // Line
					l := pb{b: m.bytes()}
					for l.more() {
						lf, lwt := l.key()
						if lf == 1 && lwt == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lwt)
						}
					}
				default:
					m.skip(wt)
				}
			}
			locFns[id] = fns
		case field == 5 && wire == 2: // Function
			m := pb{b: top.bytes()}
			var id uint64
			var name int64
			for m.more() {
				f, wt := m.key()
				switch {
				case f == 1 && wt == 0:
					id = m.varint()
				case f == 2 && wt == 0:
					name = int64(m.varint())
				default:
					m.skip(wt)
				}
			}
			fnName[id] = name
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
		if top.err != nil {
			return nil, fmt.Errorf("profile: %w", top.err)
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, st)
		p.values = append(p.values, s.values[len(s.values)-1])
	}
	return p, nil
}

// pb is a minimal protobuf wire-format reader. Errors are sticky: after the
// first one every read returns zero and more reports false.
type pb struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (d *pb) more() bool { return d.err == nil && len(d.b) > 0 }

func (d *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			d.err = errTruncated
			return 0
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	d.err = errors.New("varint overflow")
	return 0
}

func (d *pb) key() (field, wire int) {
	k := d.varint()
	return int(k >> 3), int(k & 7)
}

func (d *pb) bytes() []byte {
	n := d.varint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.err = errTruncated
		d.b = nil
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// uints reads a repeated integer field in either packed or unpacked form.
func (d *pb) uints(wire int, into []uint64) []uint64 {
	if wire == 0 {
		return append(into, d.varint())
	}
	if wire != 2 {
		d.skip(wire)
		return into
	}
	packed := pb{b: d.bytes()}
	for packed.more() {
		into = append(into, packed.varint())
	}
	if packed.err != nil {
		d.err = packed.err
	}
	return into
}

func (d *pb) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1:
		d.fixed(8)
	case 2:
		d.bytes()
	case 5:
		d.fixed(4)
	default:
		d.err = fmt.Errorf("unsupported wire type %d", wire)
	}
}

func (d *pb) fixed(n int) {
	if len(d.b) < n {
		d.err = errTruncated
		d.b = nil
		return
	}
	d.b = d.b[n:]
}

// memProfile returns the cumulative allocated-object count per allocation
// stack, as of the GC it forces. With runtime.MemProfileRate = 1 every
// allocation is recorded.
func memProfile() map[[32]uintptr]uint64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]uint64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += uint64(r.AllocObjects)
	}
	return out
}

// attributeAllocs attributes the objects allocated between two memProfile
// snapshots to the innermost repo or benchmark frame of each stack.
func attributeAllocs(before, after map[[32]uintptr]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for stk, n := range after {
		if d := n - before[stk]; d > 0 {
			out[allocSite(stk)] += d
		}
	}
	return out
}

func allocSite(stk [32]uintptr) string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if l := layerOf(f.Function); l != "" {
			return parentLayer(l)
		}
		if !more {
			return layerOther
		}
	}
}
