#!/usr/bin/env bash
# Builds the benchmark and goldilocksd from the source of the checkout
# this script sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the binaries, and each
# run's scratch directory (removed when the run ends).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$out/bin" "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# With telemetry on, every go command forks a detached upload process
# that outlives this script; switch it off for this config dir.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/goldilocksd" ]; then
	echo "run.sh: no goldilocks source at $root" >&2
	exit 1
fi

(cd "$root" && go build -o "$out/bin/goldilocksd" ./cmd/goldilocksd) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

scratch=$(mktemp -d "$out/tmp/run.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
"$out/bin/perfbench" -daemon "$out/bin/goldilocksd" -dir "$scratch" "$@"
