//! End-to-end tests for the `cdb-lint` binary: its exit codes and its
//! summary line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint lives two levels below the workspace root")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cdb-lint"))
        .args(args)
        .output()
        .expect("spawn cdb-lint")
}

#[test]
fn workspace_is_clean_and_summary_names_the_panic_surface() {
    let root = workspace_root();
    let r = run(&["--root", root.to_str().expect("utf-8 workspace path")]);
    assert!(
        r.status.success(),
        "workspace lint should be clean: {}",
        String::from_utf8_lossy(&r.stdout)
    );
    assert!(r.stdout.is_empty(), "a clean run prints no findings");
    let summary = String::from_utf8_lossy(&r.stderr);
    assert!(summary.starts_with("cdb-lint: clean ("), "{summary}");
    assert!(
        summary.contains(" call edges; panic surface: "),
        "{summary}"
    );
    assert!(summary.contains("panic surface: "), "{summary}");
    assert!(summary.contains("qe "), "{summary}");
}

#[test]
fn one_finding_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("cdb-lint-cli-{}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create temp tree");
    std::fs::write(
        src.join("lib.rs"),
        "fn first(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    )
    .expect("write lib.rs");

    let r = run(&["--root", dir.to_str().expect("utf-8 temp path")]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(r.status.code(), Some(1), "any finding fails the run");
    let out = String::from_utf8_lossy(&r.stdout);
    assert!(
        out.starts_with("crates/demo/src/lib.rs:2:") && out.contains("[panic]"),
        "{out}"
    );
    let summary = String::from_utf8_lossy(&r.stderr);
    assert!(summary.starts_with("cdb-lint: 1 finding(s) ("), "{summary}");
}

#[test]
fn unknown_argument_is_a_usage_error() {
    let r = run(&["--format", "json"]);
    assert_eq!(r.status.code(), Some(2), "--format is not an option");
}
