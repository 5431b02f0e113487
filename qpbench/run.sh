#!/usr/bin/env bash
# Builds the query-path benchmark from the sources of the checkout it is run
# from, then runs it. Run it from the repository root:
#
#   bash qpbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, heap files and traces.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/engine" ]; then
	echo "qpbench: run from the repository root; no engine sources under $root" >&2
	exit 2
fi
out="$root/.bench_build/qpbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/qpbench" && go build -o "$out/qpbench" .)
exec "$out/qpbench" --out "$out" "$@"
