#!/usr/bin/env bash
# Builds streamschedd and the perfbench command from this checkout, then runs
# perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-miss --seed 1 --seconds 18 --trace 0
#   bash perfbench/run.sh report -runs 5
#
# Build outputs, the Go build cache and span files go to $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/streamschedd" ]; then
	echo "perfbench: run from the root of a streamsched checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/streamschedd" ./cmd/streamschedd
(cd perfbench && go build -o "$out/bin/perfbench" .)

export PERFBENCH_DAEMON="$out/bin/streamschedd" PERFBENCH_OUT="$out"
exec "$out/bin/perfbench" "$@"
