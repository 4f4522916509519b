#!/usr/bin/env bash
# Builds hapbench and hapd from this checkout's sources and runs one
# workload, from the repository root:
#
#   bash hapbench/run.sh --workload p0-offline --seed 1 --seconds 35 --trace 0
#
# Binaries, the Go build cache, its temporary files and a traced run's
# spans go under .bench_build/, so nothing is read or written outside
# the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/hapd ] || [ ! -d internal ]; then
	echo "hapbench: run from the root of a hap checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/hapd" ./cmd/hapd
(cd hapbench && go build -o "$out/bin/hapbench" .)
exec "$out/bin/hapbench" -hapd "$out/bin/hapd" -spans "$out/spans" "$@"
