#!/bin/sh
# check.sh — the repo's full verification gate: format, build, vet, docs
# lint, the tier-1 test suite, a race-detector pass over the packages that
# run worlds on parallel goroutines, and an end-to-end pcap smoke test
# against a live daemon. `make check` wraps this.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: gofmt must be a no-op across the tree.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" "$unformatted" >&2
	exit 1
fi

go build ./...
go vet ./...

# docs-lint: every package (internal/, cmd/, examples/, root) must carry a
# package doc comment. Asked of the toolchain itself — go/doc's extraction,
# via `go list -f {{.Doc}}` — so a comment the parser would not attach to
# the package clause (blank line in between, wrong file, //go:build footgun)
# fails here exactly as it would render empty in godoc.
undocumented=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)
if [ -n "$undocumented" ]; then
	echo "docs-lint: packages lack a doc comment:" "$undocumented" >&2
	exit 1
fi

go test ./...
# kopiperf is a module of its own that reads internal/nic's public counters,
# so `go build ./...` above does not notice when a NIC change breaks it.
(cd kopiperf && go vet ./... && go test ./...)
# The pool defaults to GOMAXPROCS workers; force a wide pool so the race
# pass exercises real interleavings even on small machines.
NORMAN_WORKERS=8 go test -race -count=1 ./internal/sim/... ./internal/experiments/... ./internal/faults/...
# Fault-injection determinism under race at an explicit non-default seed:
# the E9 table must be byte-identical sequentially and at any pool width.
NORMAN_WORKERS=8 NORMAN_FAULT_SEED=7 go test -race -count=1 -run 'E9|Fault|Trap|Abort' ./internal/experiments/... ./internal/faults/... ./internal/transport/... ./internal/nic/... ./internal/overlay/...
# Crash-recovery determinism under race at the same non-default seed: the
# E10 table (crash, journal replay, reconciliation) must also be
# byte-identical sequentially and at any pool width.
NORMAN_WORKERS=8 NORMAN_FAULT_SEED=7 go test -race -count=1 -run 'E10|Recovery|Journal|Reconcile' ./internal/experiments/... ./internal/recovery/... ./internal/ctl/...
# Overload-governor determinism under race at the same non-default seed: the
# E11 table (admission, backpressure, shedding past the DDIO cliff) and the
# cross-subsystem chaos soak must be byte-identical sequentially and at any
# pool width.
NORMAN_WORKERS=8 NORMAN_FAULT_SEED=7 go test -race -count=1 -run 'E11|Overload|Watchdog|Watermark|Chaos' ./internal/experiments/... ./internal/overload/... ./internal/transport/... ./internal/mem/... .
# Tenant-isolation determinism under race at the same non-default seed: the
# E13 table (weighted scheduling, DDIO partitioning, per-tenant governor) and
# the adversarial-tenant chaos soak must be byte-identical sequentially and
# at any pool width.
NORMAN_WORKERS=8 NORMAN_FAULT_SEED=7 go test -race -count=1 -run 'E13|Tenant' ./internal/experiments/... ./internal/nic/... ./internal/cache/... ./internal/overload/... ./internal/ctl/... .
# Flow-cache determinism under race: the E14 table (hit rates, partition
# quotas, clock eviction, typed denials) and the cache's conservation
# ledger must be byte-identical sequentially and at any pool width.
NORMAN_WORKERS=8 NORMAN_FAULT_SEED=7 go test -race -count=1 -run 'E14|FlowCache' ./internal/experiments/... ./internal/nic/... ./internal/ctl/... .
# Hardware-fault / health-failover determinism under race at the same
# non-default seed: the E15 table (checksum detection, quarantine,
# slow-path failover, probation failback) and the hardware-fault layer of
# the chaos soak must be byte-identical sequentially and at any pool
# width.
NORMAN_WORKERS=8 NORMAN_FAULT_SEED=7 go test -race -count=1 -run 'E15|Health|Chaos' ./internal/experiments/... ./internal/health/... ./internal/faults/... ./internal/nic/... .
# Live-upgrade determinism under race at the same non-default seed: the
# E16 table (staged A/B cutover, pause buffering, canary rollback, warm
# handover), the generation/pause/outage accounting, the snapshot codec
# and journal compaction must be byte-identical sequentially and at any
# pool width.
NORMAN_WORKERS=8 NORMAN_FAULT_SEED=7 go test -race -count=1 -run 'E16|Upgrade|Snapshot|Compact|Generation|Pause|Outage' ./internal/experiments/... ./internal/upgrade/... ./internal/recovery/... ./internal/nic/... ./internal/ctl/... .
# Sharded-engine determinism under race: the E12 table and the barrier
# coordinator's merge order must be byte-identical at any shard count
# (DESIGN.md §8), with the lockstep worker goroutines under the detector.
NORMAN_WORKERS=8 go test -race -count=1 -run 'E12|Shard|Sharded|Flyweight|QueueGroup|Slab|Burst' ./internal/experiments/... ./internal/sim/... ./internal/mem/... ./internal/transport/... ./internal/nic/... ./internal/arch/...
# Allocation-free packet path under race: the continuation records' reuse
# check (a record scheduled twice or fired while free panics), the property
# that every record is back on its free list once a world with random drops
# drains, and the zero-allocation guards on the engine, NIC, world, qdisc
# and notification-queue hot paths.
NORMAN_WORKERS=8 go test -race -count=1 -run 'Alloc|Continuation' ./internal/sim/... ./internal/nic/... ./internal/arch/... ./internal/qos/... ./internal/mem/...

# pcap round-trip smoke: boot a real daemon, capture through the control
# socket, and validate the exported file carries the classic little-endian
# pcap magic — the bytes tcpdump/Wireshark would check first.
tmp=$(mktemp -d)
trap 'kill "$daemon_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
go build -o "$tmp/normand" ./cmd/normand
go build -o "$tmp/ntcpdump" ./cmd/ntcpdump
"$tmp/normand" -socket "$tmp/ctl.sock" &
daemon_pid=$!
i=0
while [ ! -S "$tmp/ctl.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
"$tmp/ntcpdump" -socket "$tmp/ctl.sock" -advance 10 -fetch -w "$tmp/out.pcap" udp >/dev/null
kill "$daemon_pid"
[ -s "$tmp/out.pcap" ]
head -c 4 "$tmp/out.pcap" | od -An -tx1 | tr -d ' \n' | grep -q '^d4c3b2a1$'

# Unreachable smoke: with no daemon on the socket, every tool must exit
# nonzero with the one-line diagnosis instead of a stack trace or a hang.
go build -o "$tmp/niptables" ./cmd/niptables
go build -o "$tmp/nnetstat" ./cmd/nnetstat
if "$tmp/niptables" -socket "$tmp/absent.sock" -L 2>"$tmp/unreach.err"; then
	echo "niptables against a dead socket must exit nonzero" >&2
	exit 1
fi
grep -q "normand unreachable at $tmp/absent.sock" "$tmp/unreach.err"

# Crash-recovery smoke: boot a journaled daemon, advance time, install a
# policy, SIGKILL it mid-flight, restart it on the same journal, and assert
# the reconciler replays the intent and reports a clean intended-vs-live
# diff. The clock is advanced *before* the rule lands so the journal holds
# a t>0 entry — the second kill cycle below then proves the restarted
# daemon persisted its epoch-boundary entry (without it, the third start
# would refuse the journal as time going backward).
"$tmp/normand" -socket "$tmp/rec.sock" -journal "$tmp/intent.journal" &
rec_pid=$!
i=0
while [ ! -S "$tmp/rec.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "journaled normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
"$tmp/ntcpdump" -socket "$tmp/rec.sock" -advance 5 udp >/dev/null
"$tmp/niptables" -socket "$tmp/rec.sock" -A OUTPUT -p udp -dport 9999 -j DROP
kill -9 "$rec_pid"
wait "$rec_pid" 2>/dev/null || true
rm -f "$tmp/rec.sock"
[ -s "$tmp/intent.journal" ]
"$tmp/normand" -socket "$tmp/rec.sock" -journal "$tmp/intent.journal" >"$tmp/rec.out" &
daemon_pid=$!
i=0
while [ ! -S "$tmp/rec.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "restarted normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
grep -q "replayed" "$tmp/rec.out"
"$tmp/nnetstat" -socket "$tmp/rec.sock" -recovery | tee "$tmp/rec.status"
grep -q "diff clean" "$tmp/rec.status"
grep -q "invariants ok" "$tmp/rec.status"
"$tmp/niptables" -socket "$tmp/rec.sock" -L | grep -q 9999

# Second kill cycle on the same journal: mutate at t>0 again, SIGKILL, and
# restart a third incarnation. This fails unless the second incarnation
# wrote its epoch entry (and every recovery-time append) through to the
# journal file.
"$tmp/ntcpdump" -socket "$tmp/rec.sock" -advance 5 udp >/dev/null
"$tmp/niptables" -socket "$tmp/rec.sock" -A OUTPUT -p udp -dport 8888 -j DROP
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
rm -f "$tmp/rec.sock"
"$tmp/normand" -socket "$tmp/rec.sock" -journal "$tmp/intent.journal" >"$tmp/rec2.out" &
daemon_pid=$!
i=0
while [ ! -S "$tmp/rec.sock" ]; do
	i=$((i + 1))
	[ "$i" -le 100 ] || { echo "twice-restarted normand never opened its socket" >&2; exit 1; }
	sleep 0.1
done
grep -q "replayed" "$tmp/rec2.out"
"$tmp/nnetstat" -socket "$tmp/rec.sock" -recovery | tee "$tmp/rec2.status"
grep -q "diff clean" "$tmp/rec2.status"
grep -q "invariants ok" "$tmp/rec2.status"
"$tmp/niptables" -socket "$tmp/rec.sock" -L >"$tmp/rec2.rules"
grep -q 9999 "$tmp/rec2.rules"
grep -q 8888 "$tmp/rec2.rules"

# Overload smoke: the live daemon runs the overload governor, so -pressure
# must print the watchdog health state and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -pressure | tee "$tmp/pressure.out"
grep -q "watchdog: ok" "$tmp/pressure.out"
grep -q "admission:" "$tmp/pressure.out"

# Tenant smoke: the live daemon runs weighted tenant isolation over the demo
# users, so -tenants must print one merged row per tenant and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -tenants | tee "$tmp/tenants.out"
grep -q "tenants: 2 under weighted isolation" "$tmp/tenants.out"
grep -q "tenant 1 (weight 3)" "$tmp/tenants.out"
grep -q "tenant 2 (weight 1)" "$tmp/tenants.out"

# Flow-cache smoke: the live daemon enables the NIC flow cache at boot, so
# -flows must print the cache header, the hit-rate line and one partition
# row per tenant, and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -flows | tee "$tmp/flows.out"
grep -q "flowcache: " "$tmp/flows.out"
grep -q "lookups: " "$tmp/flows.out"
grep -q "tenant 1: " "$tmp/flows.out"
grep -q "tenant 2: " "$tmp/flows.out"

# Health smoke: the live daemon starts the hardware health monitor at
# boot, so -health must print the sampler state, the aggregate event
# line and one row per hardware component, and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -health | tee "$tmp/health.out"
grep -q "health: sampling" "$tmp/health.out"
grep -q "events: " "$tmp/health.out"
grep -q "dma" "$tmp/health.out"
grep -q "flowcache" "$tmp/health.out"
grep -q "link" "$tmp/health.out"
grep -q "pipeline" "$tmp/health.out"

# Upgrade smoke: the live daemon boots with the live-upgrade manager
# enabled, so -upgrade must print the generation/phase header, the event
# and canary lines and the handover accounting, and exit 0.
"$tmp/nnetstat" -socket "$tmp/rec.sock" -upgrade | tee "$tmp/upgrade.out"
grep -q "upgrade: generation" "$tmp/upgrade.out"
grep -q "events: " "$tmp/upgrade.out"
grep -q "canary: " "$tmp/upgrade.out"
grep -q "handover: " "$tmp/upgrade.out"
kill "$daemon_pid"

# E12 shard-determinism smoke: the same sweep on 1 engine and on 8 lockstep
# shards must render a byte-identical table (-race so the barrier's worker
# goroutines run under the detector; wall-clock footer lines filtered).
go build -race -o "$tmp/kopibench" ./cmd/kopibench
"$tmp/kopibench" -e E12 -scale 0.002 -shards 1 | grep -v '^\(===\|---\)' >"$tmp/e12.shards1"
"$tmp/kopibench" -e E12 -scale 0.002 -shards 8 | grep -v '^\(===\|---\)' >"$tmp/e12.shards8"
diff "$tmp/e12.shards1" "$tmp/e12.shards8"

echo "check.sh: all gates passed"
