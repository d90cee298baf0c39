#!/usr/bin/env bash
# Builds the benchmark and the planed daemon from the checkout it is run
# in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign|fleet|planed --seed N --seconds S --trace 0|1
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

# The daemon is the program under test; the benchmark is its own module
# that reads the repository's packages through a replace directive.
go build -o "$out/bin/planed" ./cmd/planed
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -planed "$out/bin/planed" -out "$out/trace" "$@"
