#!/usr/bin/env bash
# Builds perfbench from source and runs it; every argument is passed on.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of an rmfec checkout. The Go build cache, the
# binary and the trace dumps all live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an rmfec checkout (go.mod, internal/ and perfbench/ not all found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOENV=off \
	GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
