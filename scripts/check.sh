#!/usr/bin/env bash
# Repository gate: formatting, lints, the tier-1 verify from ROADMAP.md, the
# full workspace test suite, and the statement benchmark's own tests.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> bash -n scripts/bench_pairs.sh"
bash -n scripts/bench_pairs.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cdb-lint (hygiene rules + interprocedural passes, baseline ratchet)"
cargo run -p cdb-lint --

echo "==> cdb-lint JSON report is parseable and stable across runs"
cargo run -q -p cdb-lint -- --format json > lint_report.json
cargo run -q -p cdb-lint -- --format json | cmp - lint_report.json

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace: every per-crate unit, differential and fixture suite"
cargo test --workspace -q

echo "==> statement benchmark builds and its harness passes (stmtbench/, own workspace)"
cargo test -q --offline --manifest-path stmtbench/Cargo.toml

echo "==> E23 smoke: planned QE matches forced CAD and the alibi oracle"
cargo run --release -p cdb-bench --bin repro -- e23 > /dev/null
grep -q '"all_outputs_equal": true' BENCH_alibi.json
grep -q '"oracle_matches": true' BENCH_alibi.json
grep -q '"hardware_threads"' BENCH_alibi.json

echo "All checks passed."
