#!/usr/bin/env bash
# bench_ab.sh — same-host A/B gate on the repository's go test
# micro-benchmarks, runnable locally and in CI. It takes no arguments.
#
# Base is `git merge-base HEAD origin/main`, or HEAD~1 when that is HEAD
# itself (a push to main); head is the working tree. The base is checked
# out in a temporary git worktree, each side's test binaries are built
# once, and the benchmarks in the gate table below run for $rounds rounds,
# alternating which side goes first, so host drift lands on both sides.
#
# A benchmark fails when head's median ns/op is worse than base's by more
# than its bound AND by more than the interquartile range of base's own
# runs (the noise floor), or when head's median exceeds its absolute
# ceiling. A benchmark missing on head fails; one missing on base only
# skips the relative check. Allocation gates are not here: they are the
# NoAlloc tests, which CI runs without -race.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# package  benchmark  relative bound in %  absolute ceiling in ns/op
# ("-" = no such check)
gates='
./internal/kernel     BenchmarkSleeperStorm          25  -
./internal/kernel     BenchmarkSteadyRunCurrent      25  -
./internal/kernel     BenchmarkTimerChurn            25  -
./internal/kernel     BenchmarkProcessTable          25  -
./internal/kernel     BenchmarkBlockExecute          25  -
./internal/kernel     BenchmarkSteadyPhase           25  -
./internal/pmu        BenchmarkAddCountsTwoActive    25  -
./internal/cpu        BenchmarkMeasureBracket        25  -
./internal/trace      BenchmarkAppendCSVRows         25  -
./internal/kleb       BenchmarkWriteChromeTrace      25  -
./internal/telemetry  BenchmarkEmitDisabled          -   25
./internal/telemetry  BenchmarkEmitEnabled           -   50
.                     BenchmarkTable2MatmulOverhead  50  -
'
# The table2 ratchet times a whole 3-trial experiment, whose wall clock is
# noisier than a nanobenchmark, so its bound is twice the others'.
rounds=5

head_rev=$(git rev-parse HEAD)
base_rev=$(git merge-base HEAD origin/main)
if [[ "$base_rev" == "$head_rev" ]]; then
    base_rev=$(git rev-parse HEAD~1)
fi
echo "bench_ab: base $base_rev, head $head_rev + working tree, $rounds rounds, $(nproc) CPUs"

work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$work/base" "$base_rev"
declare -A src=([base]="$work/base" [head]=.)

pkgs=$(awk 'NF { print $1 }' <<<"$gates" | sort -u)
bin_name() { [[ "$1" == . ]] && echo root || echo "${1##*/}"; }

# Build each side's test binary for every gated package once. A package
# that does not build on base leaves its benchmarks without a base.
for side in base head; do
    mkdir -p "$work/$side"
    for pkg in $pkgs; do
        if ! (cd "${src[$side]}" && go test -c -o "$work/$side/$(bin_name "$pkg").test" "$pkg"); then
            [[ $side == head ]] && exit 1
            echo "bench_ab: $pkg does not build on base"
        fi
    done
done

# run SIDE: one round of every gated benchmark, appending "side name ns/op".
run() {
    local side=$1 pkg bin pattern out
    for pkg in $pkgs; do
        bin="$work/$side/$(bin_name "$pkg").test"
        [[ -x "$bin" ]] || continue
        pattern=$(awk -v p="$pkg" '$1 == p { print $2 }' <<<"$gates" | paste -sd'|' -)
        if ! out=$(cd "${src[$side]}/$pkg" && "$bin" -test.run '^$' -test.bench "^($pattern)\$"); then
            echo "$out"
            echo "bench_ab: $side benchmarks in $pkg failed"
            [[ $side == head ]] && exit 1
            continue
        fi
        awk -v side="$side" '/^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") print side, name, $i
        }' <<<"$out" >>"$work/results"
    done
}

: >"$work/results"
for ((r = 1; r <= rounds; r++)); do
    if ((r % 2)); then order="head base"; else order="base head"; fi
    echo "bench_ab: round $r/$rounds ($order)"
    for side in $order; do run "$side"; done
done

awk '
# q returns the p-quantile of the sorted values a[1..n], interpolating
# linearly between order statistics.
function q(a, n, p,    h, lo) {
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function num(x) { return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.3f", x) }
function stats(side, name,    n, i, j, t, a) {
    n = cnt[side, name]
    for (i = 1; i <= n; i++) a[i] = val[side, name, i]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    med[side] = n ? q(a, n, 0.5) : 0
    iqr[side] = n ? q(a, n, 0.75) - q(a, n, 0.25) : 0
    return n
}
NR == FNR { if (NF) { names[++g] = $2; bound[$2] = $3; ceil[$2] = $4 }; next }
{ cnt[$1, $2]++; val[$1, $2, cnt[$1, $2]] = $3 }
END {
    printf "%-30s %12s %10s %12s %10s %8s %6s %7s  %s\n", "benchmark", "base ns/op", "base IQR",
        "head ns/op", "head IQR", "change", "bound", "ceiling", "verdict"
    for (k = 1; k <= g; k++) {
        name = names[k]; verdict = "ok"; change = "-"
        nh = stats("head", name); hm = med["head"]; hi = iqr["head"]
        nb = stats("base", name); bm = med["base"]; bi = iqr["base"]
        if (!nh) {
            verdict = "FAIL: missing on head"; failed++
        } else {
            if (nb && bm > 0) change = sprintf("%+.1f%%", (hm - bm) / bm * 100)
            if (bound[name] != "-" && !nb) {
                verdict = "ok (missing on base: relative check skipped)"
            } else if (bound[name] != "-" && hm > bm * (1 + bound[name] / 100) && hm - bm > bi) {
                verdict = "FAIL: beyond bound and base IQR"; failed++
            }
            if (ceil[name] != "-" && hm > ceil[name]) {
                verdict = "FAIL: above ceiling"; failed++
            }
        }
        printf "%-30s %12s %10s %12s %10s %8s %6s %7s  %s\n", name,
            nb ? num(bm) : "-", nb ? num(bi) : "-", nh ? num(hm) : "-", nh ? num(hi) : "-", change,
            (bound[name] == "-" ? "-" : bound[name] "%"), ceil[name], verdict
    }
    exit (failed > 0)
}' <(echo "$gates") "$work/results" || {
    echo "bench_ab: FAIL"
    exit 1
}
echo "bench_ab: OK"
