#!/usr/bin/env bash
# Builds the benchmark harness and runs it. Everything it writes — the Go build
# cache, the binaries, the generated data, the traces — stays under
# benchmark/out/ in this checkout, so a run touches nothing outside it.
#
#   bash benchmark/run.sh -workload all -seed 1
#   bash benchmark/run.sh -workload serve-warm -trace 1
#   bash benchmark/run.sh compare a.json b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="${GOPATH:-$out/gopath}" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" "$@"
