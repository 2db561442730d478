#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash perfbench/run.sh --workload table-pipeline --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and run state stays under .bench_build in
# the current directory. The benchmark is its own Go module (perfbench/go.mod)
# that builds against the repository one directory up.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

go=go
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	go=/usr/local/go/bin/go
fi
(cd "$root/perfbench" && "$go" build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
