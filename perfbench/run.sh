#!/usr/bin/env bash
# Builds the repository's binaries and the benchmark driver from source, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload join --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build and module caches, temporary files, the
# binaries, the per-run working directories, the oracle cache and the span
# files of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root (perfbench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

# The program under test is built from this checkout, exactly as a user
# would build it; the driver is a separate module that replaces the
# repository module with the parent directory.
(cd perfbench && go build -o "$out/bin/" \
	github.com/aujoin/aujoin/cmd/aujoin \
	github.com/aujoin/aujoin/cmd/aujoind \
	github.com/aujoin/aujoin/cmd/aujoin-coord \
	github.com/aujoin/aujoin/cmd/datagen)
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
