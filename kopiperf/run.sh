#!/usr/bin/env bash
# Builds kopiperf from source and runs it with the given arguments, e.g.
#
#   bash kopiperf/run.sh --workload rx_fastpath --seed 1 --seconds 10 --trace 0
#   bash kopiperf/run.sh compare old.jsonl new.jsonl
#
# Run it from the root of a checkout. Everything the build writes (the Go
# build cache, temporary files and the binary) stays under .bench_build in
# that checkout. The benchmark is its own module that imports the repo's
# packages from the parent directory, so outside a checkout the build fails
# and the script exits non-zero without a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/kopiperf" .)
exec "$out/kopiperf" "$@"
