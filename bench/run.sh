#!/usr/bin/env bash
# Builds the benchmark and the vaschedd service from source, then runs the
# benchmark with the given arguments. Run it from anywhere:
#
#	bash bench/run.sh --workload die-sweep --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the service's scratch data
# live under .bench_build at the repository root, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOFLAGS=-buildvcs=false
go build -o "$out/vaschedd" ./cmd/vaschedd
(cd bench && go build -o "../$out/bench" .)
exec "$out/bench" -vaschedd "$out/vaschedd" -workdir "$out" "$@"
