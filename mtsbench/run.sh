#!/usr/bin/env bash
# Builds mtsbench from the sources of the checkout it sits in and runs it,
# forwarding every argument:
#
#   bash mtsbench/run.sh --workload paper-50 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the benchmark's working files all
# stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOWORK=off GOTOOLCHAIN=local
(cd "$root/mtsbench" && go build -o "$out/mtsbench" .)
exec "$out/mtsbench" -root "$root" "$@"
