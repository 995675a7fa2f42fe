#!/usr/bin/env bash
# Repository gate: formatting, lints, rustdoc, the tier-1 verify from
# ROADMAP.md, the full workspace test suite, the golden session through the
# `serve` binary, the statement benchmark's own tests, the paper's
# experiments (E1-E15), one checked run of every benchmark workload, and a
# last look that none of it rewrote a frozen benchmark file.
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
# above builds the root package only, so build the binary first.
cargo build --release -p cdb-server --bin serve
target/release/serve < crates/server/tests/golden/session.sql |
    diff crates/server/tests/golden/session.out -

echo "==> full workspace: every per-crate unit, differential and fixture suite"
cargo test --workspace -q

echo "==> statement benchmark builds and its harness passes (stmtbench/, own workspace)"
cargo test -q --offline --manifest-path stmtbench/Cargo.toml

echo "==> repro: E1-E15 assert the paper's own numbers and unwrap every pipeline stage"
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

echo "==> alibi_scan interner lookups stay under their ceiling (one traced repeat at --seed 1)"
# The count is deterministic (sealing once per finished polynomial took it
# from 529,498 to 57,506; DESIGN.md §10.2). The number below is a ceiling,
# not a target: a change that cuts lookups further lowers it on purpose, and
# one that needs more must say why here.
intern_ceiling=57506
lookups=$(cargo run --release --quiet --offline --manifest-path stmtbench/Cargo.toml --bin bench -- \
    --workload alibi_scan --seed 1 --seconds 1 --trace 1 |
    grep -o '"poly\.intern\.\(hits\|misses\)": {"value": [0-9]*' |
    awk '{ n += $NF } END { print n + 0 }')
if [ "$lookups" -gt "$intern_ceiling" ]; then
    echo "alibi_scan: $lookups interner lookups at --seed 1, ceiling $intern_ceiling" >&2
    exit 1
fi

echo "==> conic_cad lifts the same stacks and its filtered signs stay under their ceiling (one traced repeat at --seed 1)"
# Cells and sign evaluations are pinned: a change to lifting that moves them
# changes which stacks are built or which signs are taken. The filtered-sign
# count is a ceiling, not a target, like the interner ceiling above: finding
# fibre roots over Q instead of isolating them in Q(alpha)[y] took it from
# 212,929 to 133,605 (DESIGN.md §5, rule 2).
filter_ceiling=133605
conic=$(cargo run --release --quiet --offline --manifest-path stmtbench/Cargo.toml --bin bench -- \
    --workload conic_cad --seed 1 --seconds 1 --trace 1)
counter() { echo "$conic" | grep -o "\"$1\": {\"value\": [0-9]*" | awk '{ n += $NF } END { print n + 0 }'; }
cells=$(counter 'qe\.cad\.cells')
sign_evals=$(counter 'qe\.cad\.sign_evals')
if [ "$cells" -ne 8221 ] || [ "$sign_evals" -ne 5071 ]; then
    echo "conic_cad: qe.cad.cells $cells, qe.cad.sign_evals $sign_evals at --seed 1, pinned 8221 / 5071" >&2
    exit 1
fi
filtered=$(counter 'num\.filter\.\(hits\|fallbacks\)')
if [ "$filtered" -gt "$filter_ceiling" ]; then
    echo "conic_cad: $filtered filtered signs (num.filter.hits + fallbacks) at --seed 1, ceiling $filter_ceiling" >&2
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
