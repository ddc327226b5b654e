#!/usr/bin/env bash
# Builds the session benchmark from source and runs it. Run it from the
# root of a checkout; every argument is passed to the benchmark:
#
#   bash sessionbench/run.sh --workload sim-admit --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the Go configuration directory stay
# under .bench_build/, and the build never reaches for the network: the
# benchmark module needs nothing beyond the repository's own packages and
# the standard library.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C sessionbench build -o "$out/sessionbench" .
exec "$out/sessionbench" "$@"
