#!/usr/bin/env bash
# Paired parent-vs-change measurement of the statement benchmark
# (choosing-metrics §8): build `stmtbench` at <parent-rev> and in the working
# tree, run ten pairs per workload at the BENCHMARK.json run length,
# alternating which side goes first, and print per workload x end-to-end
# metric both medians, both quartile pairs, both minima, wins/pairs, a
# verdict, and whether the transcript hashes matched, with the host's
# 1-minute load average before the first and after the last pair — medians
# that drift apart while the minima agree and the load moved are a noisy
# host, not a regression. The header names the host's hardware thread count
# (`nproc`): timings are only comparable on like hardware. Pair k runs both
# sides at --seed k.
#
# Verdicts (choosing-metrics §8, §6.5), first that applies:
#   gain        change wins >= 9/10 of the pairs run (ties count for neither)
#               and the medians differ by more than the parent's IQR
#   regressed   change median worse than the parent's by more than the
#               metric's `bound` in BENCHMARK.json
#   unresolved  the parent's IQR is wider than that bound, and not every
#               change run reads better than every parent run
#   same        none of the above
# Exit status 1 when any row is `regressed`, when a workload's transcript
# hashes DIFFER between the sides, or when any run failed or missed its
# oracle (the report is still printed in full first).
#
#   scripts/bench_pairs.sh <parent-rev | parent-checkout-dir> [workload...]
set -euo pipefail

[ $# -ge 1 ] || { echo "usage: $0 <parent-rev | parent-checkout-dir> [workload...]" >&2; exit 2; }
cd "$(dirname "$0")/.."
root=$PWD
rev=$1
shift

pairs=10
section() { sed -n "/\"$1\"/,/^  \]/p" BENCHMARK.json; }
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
metrics=$(section end_to_end | grep -o '"name": "[^"]*"' | cut -d'"' -f4)
if [ $# -gt 0 ]; then workloads=$*; else
    workloads=$(section workloads | grep -o '"name": "[^"]*"' | cut -d'"' -f4)
fi
better() { section end_to_end | grep "\"name\": \"$1\"" | grep -o '"better": "[^"]*"' | cut -d'"' -f4; }
bound() { section end_to_end | grep "\"name\": \"$1\"" | grep -o '"bound": [0-9.]*' | grep -o '[0-9.]*$'; }

work=$root/target/bench_pairs
mkdir -p "$work"
if [ -d "$rev" ]; then
    # An existing checkout of the parent (no worktree is made or removed).
    parent=$(cd "$rev" && pwd)
else
    parent=$work/parent
    git worktree remove --force "$parent" 2>/dev/null || true
    git worktree add --detach --force "$parent" "$rev" >/dev/null
    trap 'git -C "$root" worktree remove --force "$parent"' EXIT
fi

build() { # <checkout> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --quiet --offline \
        --manifest-path "$1/stmtbench/Cargo.toml" --bin bench
}
echo "building $rev and the working tree" >&2
build "$parent" "$work/parent-target"
build "$root" "$work/change-target"

run() { # <side> <workload> <seed> -> the run's two JSON lines
    local dir=$root
    [ "$1" = parent ] && dir=$parent
    (cd "$dir" && "$work/$1-target/release/bench" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null) || true
}
value() { grep -o "\"$1\": {\"value\": [0-9.eE+-]*" | tail -1 | grep -o '[0-9.eE+-]*$'; }
# median, lower and upper quartile, minimum of the numbers on stdin
summary() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "- - - -"; exit }
        m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
        printf "%.4g %.4g %.4g %.4g", m, v[int((NR + 3) / 4)], v[int((3 * NR + 3) / 4)], v[1] }'
}
load1() { cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo -; }

# verdict <parent values> <change values> <better> <bound> <wins> <pairs>
verdict() {
    { sort -g "$1"; echo; sort -g "$2"; } | awk -v better="$3" -v bound="$4" -v wins="$5" -v pairs="$6" '
        function median(v, n) { return (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
        $0 == "" { second = 1; next }
        second { c[++nc] = $1; next }
        { p[++np] = $1 }
        END {
            if (!np || !nc) { print "-"; exit }
            s = (better == "lower") ? 1 : -1
            pm = median(p, np)
            worse = s * (median(c, nc) - pm)
            iqr = p[int((3 * np + 3) / 4)] - p[int((np + 3) / 4)]
            limit = bound * (pm < 0 ? -pm : pm)
            all_better = (s > 0) ? (c[nc] < p[1]) : (c[1] > p[np])
            if (10 * wins >= 9 * pairs && -worse > iqr) print "gain"
            else if (worse > limit) print "regressed"
            else if (iqr > limit && !all_better) print "unresolved"
            else print "same"
        }'
}

status=0
echo "host: $(nproc) hardware threads; $pairs pairs per workload, ${seconds} s per run"
printf '%-12s %-12s %42s %42s %7s  %s\n' workload metric \
    "parent median [q1, q3] min" "change median [q1, q3] min" wins verdict
for w in $workloads; do
    out=$work/$w
    rm -rf "$out"
    mkdir -p "$out"
    hashes=same
    load_before=$(load1)
    for k in $(seq 1 $pairs); do
        if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$w" "$k" >"$out/$side.$k.json"; done
        echo "$w pair $k/$pairs done" >&2
        for side in parent change; do
            grep -q '"correct": true' "$out/$side.$k.json" && grep -q '"failed": 0[,}]' "$out/$side.$k.json" ||
                { echo "$w pair $k: $side run failed or was incorrect" >&2; status=1; }
        done
        hp=$(grep -o '"transcript_hash": "[^"]*"' "$out/parent.$k.json" | head -1)
        hc=$(grep -o '"transcript_hash": "[^"]*"' "$out/change.$k.json" | head -1)
        [ -n "$hp" ] && [ "$hp" = "$hc" ] || { hashes=DIFFER; status=1; }
    done
    load_after=$(load1)
    for m in $metrics; do
        wins=0
        decided=0
        : >"$out/parent.$m"
        : >"$out/change.$m"
        for k in $(seq 1 $pairs); do
            p=$(value "$m" <"$out/parent.$k.json")
            c=$(value "$m" <"$out/change.$k.json")
            [ -n "$p" ] && [ -n "$c" ] || continue
            echo "$p" >>"$out/parent.$m"
            echo "$c" >>"$out/change.$m"
            decided=$((decided + 1))
            if [ "$(better "$m")" = lower ]; then a=$c b=$p; else a=$p b=$c; fi
            wins=$((wins + $(awk -v a="$a" -v b="$b" 'BEGIN { print (a + 0 < b + 0) }')))
        done
        read -r pm p1 p3 pmin <<<"$(summary <"$out/parent.$m")"
        read -r cm c1 c3 cmin <<<"$(summary <"$out/change.$m")"
        v=$(verdict "$out/parent.$m" "$out/change.$m" "$(better "$m")" "$(bound "$m")" "$wins" "$decided")
        [ "$v" = regressed ] && status=1
        printf '%-12s %-12s %42s %42s %4s/%-2s  %s\n' "$w" "$m" \
            "$pm [$p1, $p3] $pmin" "$cm [$c1, $c3] $cmin" "$wins" "$decided" "$v"
    done
    echo "$w transcript hashes: $hashes; 1-minute load average $load_before before the first pair, $load_after after the last"
done
exit $status
