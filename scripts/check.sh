#!/usr/bin/env bash
# Repository gate: formatting, lints, rustdoc, the tier-1 verify from
# ROADMAP.md, the full workspace test suite, the golden session through the
# `serve` binary, the statement benchmark's own tests, the paper's
# experiments (E1-E16), one checked run of every benchmark workload, the
# pinned per-layer counts of a few traced runs, and a last look that none of
# it rewrote a frozen benchmark file.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> bash -n scripts/bench_pairs.sh"
bash -n scripts/bench_pairs.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cdb-lint (hygiene rules + interprocedural passes)"
cargo run -p cdb-lint --

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> serve binary: the golden session transcript through the release \`serve\`"
# The golden test drives `Session::serve` in-process; this runs the binary's
# `main` (stdin lock, stdout, shutdown) on the same script. The tier-1 build
# above builds the root package only, so build the binary first. A lone
# session lifts CAD on every hardware thread: pinned to one CPU the lift is
# sequential, unpinned it is parallel on any host with 2 or more threads,
# and both must print the same bytes.
cargo build --release -p cdb-server --bin serve
taskset -c 0 target/release/serve < crates/server/tests/golden/session.sql |
    diff crates/server/tests/golden/session.out -
target/release/serve < crates/server/tests/golden/session.sql |
    diff crates/server/tests/golden/session.out -

echo "==> full workspace: every per-crate unit, differential and fixture suite"
cargo test --workspace -q

echo "==> statement benchmark builds and its harness passes (stmtbench/, own workspace)"
cargo test -q --offline --manifest-path stmtbench/Cargo.toml

echo "==> repro: E1-E16 assert the paper's own numbers and unwrap every pipeline stage"
cargo run --release -p cdb-bench --bin repro > /dev/null

echo "==> statement benchmark: every BENCHMARK.json workload at full size answers, matches its oracle and its pinned transcript"
# Workload entries are the only ones with "name" alone on its line; `bench`
# exits 1 when any statement fails or misses its oracle. The transcript hash
# (first JSON line) covers every response byte of the run: byte identity is
# the refactoring licence (ROADMAP north star), so a change that means to
# alter an answer re-pins the value here and says why.
pinned_hash() {
    case $1 in
        alibi_scan) echo f58e4cbc16019355 ;;
        conic_cad) echo eb4732f732f472fa ;;
        tc_update) echo 39b3c949d823325c ;;
        calcf_agg) echo 194296bcf4cb4725 ;;
        serve_mixed) echo fd881f3dadab7d81 ;;
        *) echo "no transcript hash pinned for workload $1" >&2; return 1 ;;
    esac
}
for w in $(sed -n 's/^ *"name": "\([a-z_]*\)",$/\1/p' BENCHMARK.json); do
    want=$(pinned_hash "$w")
    got=$(cargo run --release --quiet --offline --manifest-path stmtbench/Cargo.toml --bin bench -- \
        --workload "$w" --seed 1 --seconds 1 --trace 0 |
        sed -n '1s/.*"transcript_hash": "\([0-9a-f]*\)".*/\1/p')
    if [ "$got" != "$want" ]; then
        echo "$w: transcript_hash $got at --seed 1, pinned $want" >&2
        exit 1
    fi
done

echo "==> alibi_scan interner lookups stay under their ceiling and its planner dispatch counts are pinned (one traced repeat at --seed 1)"
# The count is deterministic (sealing once per finished polynomial took it
# from 529,498 to 57,506; DESIGN.md §10.2). The number below is a ceiling,
# not a target: a change that cuts lookups further lowers it on purpose, and
# one that needs more must say why here.
intern_ceiling=57506
alibi_run=$(cargo run --release --quiet --offline --manifest-path stmtbench/Cargo.toml --bin bench -- \
    --workload alibi_scan --seed 1 --seconds 1 --trace 1)
alibi_counter() { echo "$alibi_run" | grep -o "\"$1\": {\"value\": [0-9]*" | awk '{ n += $NF } END { print n + 0 }'; }
lookups=$(alibi_counter 'poly\.intern\.\(hits\|misses\)')
if [ "$lookups" -gt "$intern_ceiling" ]; then
    echo "alibi_scan: $lookups interner lookups at --seed 1, ceiling $intern_ceiling" >&2
    exit 1
fi
# Which eliminator each disjunct went to (DESIGN.md §16): substitution,
# Fourier-Motzkin, the quadratic shortcut, CAD. The counts are deterministic,
# so a planner change that reroutes a disjunct fails here without timing. A
# change that reroutes on purpose re-pins these numbers and says why here.
plan="$(alibi_counter 'qe\.plan\.subst') $(alibi_counter 'qe\.plan\.fm') $(alibi_counter 'qe\.plan\.quad') $(alibi_counter 'qe\.plan\.cad')"
if [ "$plan" != "1826 7 5477 0" ]; then
    echo "alibi_scan: qe.plan.{subst,fm,quad,cad} $plan at --seed 1, pinned 1826 7 5477 0" >&2
    exit 1
fi

echo "==> calcf_agg interner lookups and filtered signs stay under their ceilings (one traced repeat at --seed 1)"
# Sample evaluation in CAD lifting seals nothing and an algebraic fibre seals
# once (DESIGN.md §10.2): that took the lookup count from 40,234 to 27,071.
# Reading every CAD normal form (primitive squarefree part) through the
# memo-cache, instead of recomputing it at each site, took it to 12,220
# (DESIGN.md §6). A ceiling, like the one above, so a lifting path that goes
# back to substituting one sealed coordinate at a time, or a CAD site that
# goes back to unmemoised squarefree parts, fails here without timing.
# Filtered signs (num.filter.hits + fallbacks) are a ceiling too: the region
# scan approximating each x-interval end once per region, where it builds
# the cell, instead of once per band and per neighbouring slab, took them
# from 1,383 to 1,333.
agg_intern_ceiling=12220
agg_filter_ceiling=1333
agg_run=$(cargo run --release --quiet --offline --manifest-path stmtbench/Cargo.toml --bin bench -- \
    --workload calcf_agg --seed 1 --seconds 1 --trace 1)
agg_counter() { echo "$agg_run" | grep -o "\"$1\": {\"value\": [0-9]*" | awk '{ n += $NF } END { print n + 0 }'; }
lookups=$(agg_counter 'poly\.intern\.\(hits\|misses\)')
if [ "$lookups" -gt "$agg_intern_ceiling" ]; then
    echo "calcf_agg: $lookups interner lookups at --seed 1, ceiling $agg_intern_ceiling" >&2
    exit 1
fi
filtered=$(agg_counter 'num\.filter\.\(hits\|fallbacks\)')
if [ "$filtered" -gt "$agg_filter_ceiling" ]; then
    echo "calcf_agg: $filtered filtered signs (num.filter.hits + fallbacks) at --seed 1, ceiling $agg_filter_ceiling" >&2
    exit 1
fi

echo "==> conic_cad lifts the same stacks and its filtered signs stay under their ceiling (one traced repeat at --seed 1)"
# Cells and sign evaluations are pinned: a change to lifting that moves them
# changes which stacks are built or which signs are taken. The filtered-sign
# count is a ceiling, not a target, like the interner ceiling above: finding
# fibre roots over Q instead of isolating them in Q(alpha)[y] took it from
# 212,929 to 133,605 (DESIGN.md §5, rule 2), reading a linear fibre's root
# off its coefficients took it to 129,579 (DESIGN.md §8), and signing the
# fibre polynomial and its subresultant gcd at the separators, instead of
# the fibre's squarefree part in Q(alpha)[y], took it to 117,657 (DESIGN.md
# §5, rule 2). Deciding zero and equality of algebraic numbers by a gcd's
# sign change instead of Sturm counts, and taking a root interval's end
# sign only when it is halved, took it to 106,836 (DESIGN.md §5, rule 1).
# Root isolation handing each half-interval the variation count already
# taken at its lower end (the parent's lower end or its midpoint), instead
# of evaluating the Sturm chain there again, took it to 72,567, the same
# over runs pinned to one CPU and unpinned (DESIGN.md §8).
# traced <workload>: one traced repeat at --seed 1 into $run; counter reads it.
traced() {
    run=$(cargo run --release --quiet --offline --manifest-path stmtbench/Cargo.toml --bin bench -- \
        --workload "$1" --seed 1 --seconds 1 --trace 1)
}
counter() { echo "$run" | grep -o "\"$1\": {\"value\": [0-9]*" | awk '{ n += $NF } END { print n + 0 }'; }
# lift_gate <workload> <pinned cells> <pinned sign evaluations> <filtered-sign ceiling>
lift_gate() {
    traced "$1"
    local cells sign_evals filtered
    cells=$(counter 'qe\.cad\.cells')
    sign_evals=$(counter 'qe\.cad\.sign_evals')
    if [ "$cells" -ne "$2" ] || [ "$sign_evals" -ne "$3" ]; then
        echo "$1: qe.cad.cells $cells, qe.cad.sign_evals $sign_evals at --seed 1, pinned $2 / $3" >&2
        exit 1
    fi
    filtered=$(counter 'num\.filter\.\(hits\|fallbacks\)')
    if [ "$filtered" -gt "$4" ]; then
        echo "$1: $filtered filtered signs (num.filter.hits + fallbacks) at --seed 1, ceiling $4" >&2
        exit 1
    fi
}
lift_gate conic_cad 8221 5071 72567

echo "==> serve_mixed lifts the same stacks and its filtered signs stay under their ceiling (one traced repeat at --seed 1)"
# The same gate on the workload whose two sessions lift concurrently. Its
# counts were identical over three runs and a run pinned to one CPU once each
# number owned its refinement (DESIGN.md §5, "Refinement is owned"), so they
# are pinned like conic_cad's; the filtered-sign ceiling is the count then.
lift_gate serve_mixed 7940 4960 69520

echo "==> tc_update and serve_mixed route their writes as pinned (one traced repeat each at --seed 1)"
# How the update path refreshed the derived relations of every write
# (DESIGN.md §12): programs resumed incrementally, programs re-run from
# their base snapshots, and views plus heads refreshed. The counts are
# deterministic (tc_update: 8 inserts into a Datalog head's input, then one
# delete; serve_mixed: 40 inserts and deletes, each refreshing a view and a
# Datalog head, every fifth a delete), so a change to the scheduler that
# reroutes a refresh fails here without timing. A change that reroutes on purpose re-pins these
# numbers and says why here.
# routing_gate <workload> <incremental reruns> <full reruns> <refreshed>, on
# the last traced run
routing_gate() {
    local routing
    routing="$(counter 'core\.incremental_reruns') $(counter 'core\.full_reruns') $(counter 'core\.refreshed')"
    if [ "$routing" != "$2 $3 $4" ]; then
        echo "$1: core.{incremental_reruns,full_reruns,refreshed} $routing at --seed 1, pinned $2 $3 $4" >&2
        exit 1
    fi
}
routing_gate serve_mixed 32 8 80
traced tc_update
routing_gate tc_update 8 1 9

echo "==> tc_update's fixpoint work is pinned and its interner lookups stay under their ceiling (the same traced repeat)"
# The semi-naive rounds of every refresh (DESIGN.md §7): body-QE calls,
# tuples new to a head summed over rounds, and rounds. Deterministic, so a
# change to delta rewriting or to the merge that derives, or re-derives, a
# tuple fails here without timing; a change that means to move them re-pins
# them and says why here.
fixpoint="$(counter 'datalog\.qe_calls') $(counter 'datalog\.delta_tuples') $(counter 'datalog\.iterations')"
if [ "$fixpoint" != "22 210 21" ]; then
    echo "tc_update: datalog.{qe_calls,delta_tuples,iterations} $fixpoint at --seed 1, pinned 22 210 21" >&2
    exit 1
fi
# Merging a point head by key, which builds a point tuple for new points
# only and keeps the stored ones, took the lookups from 42,034 to 16,194
# (DESIGN.md §7). A ceiling, like the ones above: a merge that goes back to
# rebuilding the whole head from its points fails here without timing.
tc_intern_ceiling=16194
lookups=$(counter 'poly\.intern\.\(hits\|misses\)')
if [ "$lookups" -gt "$tc_intern_ceiling" ]; then
    echo "tc_update: $lookups interner lookups at --seed 1, ceiling $tc_intern_ceiling" >&2
    exit 1
fi

echo "==> the frozen benchmark is as committed (no step above rewrote stmtbench/ or BENCHMARK.json)"
# A manifest edit that makes cargo rewrite stmtbench/Cargo.lock shows up here.
frozen=$(git status --short stmtbench/ BENCHMARK.json)
if [ -n "$frozen" ]; then
    echo "$frozen" >&2
    exit 1
fi

echo "All checks passed."
