//! Fixture corpus: each directory under `tests/fixtures/` is one case.
//!
//! Single-file cases hold an `input.rs`, a `path.txt` with the pretend
//! workspace-relative path (rule applicability is path-derived), and a
//! golden `expected.txt`. Multi-file cases (the interprocedural passes
//! need cross-file call graphs) hold a `files/` directory instead: every
//! `.rs` inside starts with a `//@ path: <workspace-relative path>` header
//! line, and the whole set is linted as one unit through `lint_files`.
//!
//! Regenerate goldens with `UPDATE_FIXTURES=1 cargo test -p cdb-lint` and
//! review the diff like any other code change.

use std::path::Path;

fn render(diags: &[cdb_lint::Diagnostic]) -> String {
    diags.iter().map(|d| format!("{d}\n")).collect()
}

fn run_case(dir: &Path) -> (String, String) {
    let files_dir = dir.join("files");
    let got = if files_dir.is_dir() {
        let mut inputs: Vec<(String, String)> = Vec::new();
        let mut names: Vec<_> = std::fs::read_dir(&files_dir)
            .expect("fixture files dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        names.sort();
        for path in names {
            let src = std::fs::read_to_string(&path).expect("fixture file");
            let (header, _) = src.split_once('\n').expect("fixture header line");
            let rel = header
                .strip_prefix("//@ path:")
                .unwrap_or_else(|| panic!("{} must start with `//@ path:`", path.display()))
                .trim()
                .to_owned();
            inputs.push((rel, src));
        }
        render(&cdb_lint::lint_files(&inputs).diagnostics)
    } else {
        let src = std::fs::read_to_string(dir.join("input.rs")).expect("fixture input.rs");
        let rel = std::fs::read_to_string(dir.join("path.txt"))
            .expect("fixture path.txt")
            .trim()
            .to_owned();
        render(&cdb_lint::lint_file(&rel, &src))
    };
    let expected_path = dir.join("expected.txt");
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&expected_path, &got).expect("write golden");
    }
    let expected = std::fs::read_to_string(&expected_path).unwrap_or_default();
    (got, expected)
}

#[test]
fn fixture_corpus_matches_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut cases: Vec<_> = std::fs::read_dir(&root)
        .expect("fixtures dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    assert!(cases.len() >= 11, "fixture corpus went missing");
    let mut failures = Vec::new();
    for dir in &cases {
        let (got, expected) = run_case(dir);
        if got != expected {
            failures.push(format!(
                "== {}\n-- expected --\n{expected}-- got --\n{got}",
                dir.file_name().unwrap_or_default().to_string_lossy()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The linter's reason-for-being: the workspace itself must be clean.
/// Runs the same entry point as the CLI over the real tree.
#[test]
fn workspace_is_clean() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = cdb_lint::run_root(&ws).expect("scan workspace");
    let findings: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings.join("\n")
    );
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

/// The lock-order pass is the machine-checked proof obligation for the
/// serving stack (DESIGN.md §13): the acquisition-order graph over the
/// real workspace must contain the documented hierarchy and stay acyclic
/// (every cycle would have surfaced as a diagnostic above).
#[test]
fn workspace_lock_hierarchy_holds() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = cdb_lint::run_root(&ws).expect("scan workspace");
    let has = |from: &str, to: &str| {
        report
            .lock_edges
            .iter()
            .any(|e| e.from == from && e.to == to)
    };
    // Session::write holds the master cell across apply_write, which can
    // touch the cache shards and the interner.
    assert!(
        has("db-master", "cache-shard"),
        "edges: {:?}",
        report.lock_edges
    );
    assert!(has("db-master", "interner-shard"));
    // The serve loop holds the stdin lock for the whole session.
    assert!(has("stdio", "db-master"));
    // The documented order is top-down only: nothing re-acquires the
    // master cell from below it.
    assert!(!has("cache-shard", "db-master"));
    assert!(!has("interner-shard", "db-master"));
    // The graph carries real volume and the panic surface is populated.
    assert!(report.functions > 500, "functions: {}", report.functions);
    assert!(report.call_edges > 1000, "edges: {}", report.call_edges);
    assert!(
        report.panic_surface.contains_key("qe"),
        "surface: {:?}",
        report.panic_surface
    );
}

/// Pin the path → rule-family mapping for every kind of workspace path:
/// `classify` is the linter's jurisdiction table, and a silent change to
/// it would quietly widen or narrow every rule at once.
#[test]
fn classify_table_is_pinned() {
    // (path, float, determinism, panic, lock)
    let table: &[(&str, bool, bool, bool, bool)] = &[
        // The FIntv boundary and the fp crate are the float zones.
        ("crates/num/src/fintv.rs", false, false, true, true),
        ("crates/fp/src/lib.rs", false, false, true, true),
        ("crates/fp/src/eval.rs", false, false, true, true),
        // Everything else is float-confined.
        ("crates/num/src/rat.rs", true, false, true, true),
        ("crates/poly/src/lib.rs", true, false, true, true),
        // Result-producing crates answer to determinism.
        ("crates/qe/src/lib.rs", true, true, true, true),
        ("crates/qe/src/cad/sample.rs", true, true, true, true),
        // The planner and its quadratic kernel produce result bytes
        // (strategy choice decides which eliminator writes the output),
        // so both sit fully inside the determinism + float scope.
        ("crates/qe/src/plan.rs", true, true, true, true),
        ("crates/qe/src/quad1.rs", true, true, true, true),
        ("crates/datalog/src/program.rs", true, true, true, true),
        ("crates/calcf/src/engine.rs", true, true, true, true),
        ("crates/agg/src/eval.rs", true, true, true, true),
        // Determinism singletons outside those crates: the update
        // scheduler is; the facade beside it is not.
        ("crates/num/src/modp.rs", true, true, true, true),
        ("crates/core/src/update.rs", true, true, true, true),
        ("crates/core/src/facade.rs", true, false, true, true),
        // The whole serving layer is determinism-scoped.
        ("crates/server/src/session.rs", true, true, true, true),
        ("crates/server/src/wire.rs", true, true, true, true),
        // Binaries may panic on startup but stay float/lock-checked.
        ("crates/server/src/bin/serve.rs", true, true, false, true),
        ("crates/core/src/bin/cdb.rs", true, false, false, true),
        ("crates/qe/src/main.rs", true, true, false, true),
        // Core library files: float + panic + lock.
        ("crates/core/src/lib.rs", true, false, true, true),
        ("crates/lint/src/lib.rs", true, false, true, true),
    ];
    for &(path, float, determinism, panic, lock) in table {
        let c = cdb_lint::classify(path);
        assert_eq!(
            (c.float, c.determinism, c.panic, c.lock),
            (float, determinism, panic, lock),
            "classify({path})"
        );
    }
}
