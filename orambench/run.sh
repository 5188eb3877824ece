#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run from
# the repository root:
#
#   bash orambench/run.sh --workload local-uniform --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/store" ]; then
  echo "orambench: run from the root of a repository checkout" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
(
  cd "$bench"
  GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$out/orambench" .
) >&2
exec "$out/orambench" "$@"
