#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run it from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the full per-run reports (with the
# traced spans) go under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep every file the go command writes (build cache, temporary files,
# telemetry counters) inside .bench_build, and never reach the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/benchmark" build -buildvcs=false -o "$build/benchmark" .

if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
else
	# Not a git checkout: fingerprint the Go sources measured instead.
	rev="src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
exec "$build/benchmark" --rev "$rev" --out "$build/results" "$@"
