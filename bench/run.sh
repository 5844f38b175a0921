#!/usr/bin/env bash
# Builds the lightperf benchmark from source and runs it; every argument is
# passed on (see bench/README.md). Run it from the repository root:
#
#   bash bench/run.sh --workload racy-dense --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's config and telemetry counters live under the user
# config directory; keep them in the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/lightperf" .)
exec "$out/lightperf" -work "$out/lightperf-work" "$@"
