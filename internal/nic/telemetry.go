package nic

import (
	"fmt"

	"norman/internal/sim"
	"norman/internal/telemetry"
)

// dropClasses is the NIC's drop ledger: every reason the NIC loses a frame,
// once, in a fixed order, with the public counter that holds it. The metrics
// registry, RxDropped/TxDropped and every conservation ledger read this
// table, so a new drop class is counted everywhere by adding one row.
var dropClasses = [...]struct {
	name, help string
	dir        Direction
	field      func(*NIC) *uint64
}{
	{"rx_drop_nosteer", "frames dropped for lack of a steering rule (no default conn)", Ingress, func(n *NIC) *uint64 { return &n.RxDropNoSteer }},
	{"rx_drop_ring", "frames dropped because the destination RX ring was full", Ingress, func(n *NIC) *uint64 { return &n.RxDropRing }},
	{"rx_drop_verdict", "frames dropped by an ingress overlay verdict", Ingress, func(n *NIC) *uint64 { return &n.RxDropVerdict }},
	{"rx_outage_drop", "frames dropped while the dataplane was faulted down", Ingress, func(n *NIC) *uint64 { return &n.RxOutageDrop }},
	{"rx_fifo_drop", "frames dropped at the MAC FIFO under DMA backpressure", Ingress, func(n *NIC) *uint64 { return &n.RxFifoDrop }},
	{"rx_shed", "ingress frames deliberately dropped by the priority-aware shed policy", Ingress, func(n *NIC) *uint64 { return &n.RxShed }},
	{"rx_link_drop", "ingress frames lost while the physical link was down", Ingress, func(n *NIC) *uint64 { return &n.RxLinkDrop }},
	{"rx_pause_drop", "ingress frames dropped because the bounded cutover pause buffer overflowed", Ingress, func(n *NIC) *uint64 { return &n.RxPauseDrop }},
	{"tx_drop_verdict", "frames dropped by an egress overlay verdict", Egress, func(n *NIC) *uint64 { return &n.TxDropVerdict }},
	{"tx_outage_drop", "egress frames lost to a bitstream-reload outage", Egress, func(n *NIC) *uint64 { return &n.TxOutageDrop }},
}

func (n *NIC) dropped(dir Direction) uint64 {
	var sum uint64
	for _, d := range dropClasses {
		if d.dir == dir {
			sum += *d.field(n)
		}
	}
	return sum
}

// RxDropped sums every ingress drop class: with delivered, slow-pathed and
// in-flight frames it accounts for everything that reached the NIC.
func (n *NIC) RxDropped() uint64 { return n.dropped(Ingress) }

// TxDropped sums every egress drop class.
func (n *NIC) TxDropped() uint64 { return n.dropped(Egress) }

// RegisterMetrics exposes the NIC's dataplane counters and SRAM occupancy
// through a telemetry registry. The NIC keeps plain uint64 fields on the hot
// path; the registry reads them lazily through closures at render time, so
// registration adds no per-packet cost.
func (n *NIC) RegisterMetrics(r *telemetry.Registry, labels telemetry.Labels) {
	for _, d := range dropClasses {
		v := d.field(n)
		r.Counter(telemetry.Desc{Layer: "nic", Name: d.name, Help: d.help, Unit: "frames"},
			labels, func() uint64 { return *v })
	}
	counters := []struct {
		name, help, unit string
		v                *uint64
	}{
		{"rx_wire", "frames that arrived from the wire", "frames", &n.RxWire},
		{"rx_slow_path", "frames punted to the software slow path", "frames", &n.RxSlowPath},
		{"rx_pause_buffered", "ingress frames held and replayed by the cutover pause buffer", "frames", &n.RxPauseBuffered},
		{"tx_frames", "frames transmitted onto the wire", "frames", &n.TxFrames},
		{"tx_bytes", "bytes transmitted onto the wire", "bytes", &n.TxBytes},
		{"dma_desc_hit", "descriptor fetches satisfied by the on-NIC shadow (no PCIe round trip)", "fetches", &n.DMADescHit},
		{"dma_desc_miss", "descriptor fetches that crossed PCIe to host memory", "fetches", &n.DMADescMiss},
		{"trap_fallbacks", "overlay runtime traps absorbed by falling back to the last-good chain", "traps", &n.TrapFallbacks},
		{"trap_fail_opens", "double-trap events that unloaded the pipeline and failed open", "traps", &n.TrapFailOpens},
		{"dma_stall_ns", "injected DMA-engine stall time", "ns", &n.DMAStallNs},
	}
	for _, c := range counters {
		v := c.v
		r.Counter(telemetry.Desc{Layer: "nic", Name: c.name, Help: c.help, Unit: c.unit},
			labels, func() uint64 { return *v })
	}
	r.Gauge(telemetry.Desc{Layer: "nic", Name: "sram_used_bytes", Help: "on-NIC SRAM consumed by connections, steering entries and overlay programs", Unit: "bytes"},
		labels, func() float64 { used, _ := n.SRAM(); return float64(used) })
	r.Gauge(telemetry.Desc{Layer: "nic", Name: "sram_budget_bytes", Help: "total on-NIC SRAM budget", Unit: "bytes"},
		labels, func() float64 { _, budget := n.SRAM(); return float64(budget) })

	// Flow-cache series register only when the cache is installed at
	// registration time (like the per-tenant scheduler series below); the
	// closures re-read n.fc so a later re-enable keeps the series live.
	if n.fc != nil {
		fcCounters := []struct {
			name, help string
			read       func(*FlowCache) uint64
		}{
			{"flowcache_hits", "ingress frames served by the exact-match flow cache (no overlay interpretation)", func(f *FlowCache) uint64 { return f.Hits }},
			{"flowcache_misses", "ingress frames that probed the flow cache and took the slow path", func(f *FlowCache) uint64 { return f.Misses }},
			{"flowcache_installs", "flow-cache entries installed after a slow-path run", func(f *FlowCache) uint64 { return f.Installs }},
			{"flowcache_evictions", "flow-cache entries evicted by the per-bucket clock", func(f *FlowCache) uint64 { return f.Evictions }},
			{"flowcache_invalidations", "flow-cache entries dropped by reload/steering/close invalidation", func(f *FlowCache) uint64 { return f.Invalidations }},
			{"flowcache_denied", "flow-cache installs refused because the tenant's partition had no victim", func(f *FlowCache) uint64 { return f.Denied }},
			{"flowcache_checksum_fails", "flow-cache hits refused because the entry's checksum no longer matched (detected SRAM corruption)", func(f *FlowCache) uint64 { return f.ChecksumFails }},
			{"flowcache_corrupt_served", "lookups that applied a corrupted entry's decision (ground truth; non-zero only with verification off)", func(f *FlowCache) uint64 { return f.CorruptServed }},
		}
		for _, c := range fcCounters {
			read := c.read
			unit := "frames"
			if c.name != "flowcache_hits" && c.name != "flowcache_misses" &&
				c.name != "flowcache_checksum_fails" && c.name != "flowcache_corrupt_served" {
				unit = "entries"
			}
			r.Counter(telemetry.Desc{Layer: "nic", Name: c.name, Help: c.help, Unit: unit},
				labels, func() uint64 {
					if f := n.fc; f != nil {
						return read(f)
					}
					return 0
				})
		}
		r.Gauge(telemetry.Desc{Layer: "nic", Name: "flowcache_entries", Help: "live flow-cache entries", Unit: "entries"},
			labels, func() float64 {
				if f := n.fc; f != nil {
					return float64(f.Len())
				}
				return 0
			})
		r.Gauge(telemetry.Desc{Layer: "nic", Name: "flowcache_capacity", Help: "flow-cache entry slots charged against the SRAM budget", Unit: "entries"},
			labels, func() float64 {
				if f := n.fc; f != nil {
					return float64(f.Capacity())
				}
				return 0
			})
	}

	// Per-tenant scheduler accounting, one labeled series per tenant known
	// to the scheduler at registration, in sorted tenant order.
	if n.tsched != nil {
		for _, st := range n.tsched.Stats() {
			id := st.Tenant
			tl := make(telemetry.Labels, len(labels)+1)
			for k, v := range labels {
				tl[k] = v
			}
			tl["tenant"] = fmt.Sprint(id)
			r.Counter(telemetry.Desc{Layer: "nic", Name: "tenant_pipe_grants", Help: "pipeline slots granted to the tenant by the DRR scheduler", Unit: "grants"},
				tl, func() uint64 { return n.tsched.statsFor(id).PipeGrants })
			r.Counter(telemetry.Desc{Layer: "nic", Name: "tenant_dma_grants", Help: "DMA engine slots granted to the tenant by the DRR scheduler", Unit: "grants"},
				tl, func() uint64 { return n.tsched.statsFor(id).DMAGrants })
			r.Counter(telemetry.Desc{Layer: "nic", Name: "tenant_pipe_work_ns", Help: "pipeline occupancy consumed by the tenant", Unit: "ns"},
				tl, func() uint64 { return uint64(n.tsched.statsFor(id).PipeWork / sim.Nanosecond) })
			r.Counter(telemetry.Desc{Layer: "nic", Name: "tenant_dma_work_ns", Help: "DMA engine occupancy consumed by the tenant", Unit: "ns"},
				tl, func() uint64 { return uint64(n.tsched.statsFor(id).DMAWork / sim.Nanosecond) })
			r.Counter(telemetry.Desc{Layer: "nic", Name: "tenant_fifo_drops", Help: "ingress frames dropped at the tenant's FIFO share", Unit: "frames"},
				tl, func() uint64 { return n.tsched.statsFor(id).RxFifoDrops })
			if n.fc != nil {
				r.Counter(telemetry.Desc{Layer: "nic", Name: "tenant_flowcache_hits", Help: "flow-cache hits on the tenant's entries", Unit: "frames"},
					tl, func() uint64 {
						if f := n.fc; f != nil {
							for _, st := range f.TenantStats() {
								if st.Tenant == id {
									return st.Hits
								}
							}
						}
						return 0
					})
				r.Counter(telemetry.Desc{Layer: "nic", Name: "tenant_flowcache_denied", Help: "flow-cache installs refused inside the tenant's partition", Unit: "entries"},
					tl, func() uint64 {
						if f := n.fc; f != nil {
							for _, st := range f.TenantStats() {
								if st.Tenant == id {
									return st.Denied
								}
							}
						}
						return 0
					})
			}
		}
	}
}
