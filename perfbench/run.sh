#!/usr/bin/env bash
# run.sh — build the repository benchmark from source and run it.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. The binary, its Go build cache and the
# traced runs' span files go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout. The last line
# of standard output is the benchmark's JSON result; see perfbench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
    echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
    exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
out="$out/perfbench"
mkdir -p "$out"

commit=none
if [[ -d .git ]] && command -v git >/dev/null 2>&1; then
    commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" --commit "$commit" "$@"
