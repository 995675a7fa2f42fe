//! `cdb-lint` CLI: lint the enclosing workspace (or `--root <dir>`) and
//! print every finding as `file:line:col: [rule] message`.
//!
//! Exit codes: 0 clean, 1 on any finding, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("cdb-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "cdb-lint — workspace invariant checker\n\n\
                     USAGE: cdb-lint [--root <dir>]\n\n\
                     Prints every finding and exits 1 if there is any. The summary line on\n\
                     stderr counts files, fns, call edges and lock-order edges, and gives\n\
                     the per-crate panic surface.\n\n\
                     Rule families (suppress with `// cdb-lint: allow(<rule>) — <reason>`\n\
                     on the offending line or the line above, or\n\
                     `// cdb-lint: allow-file(<rule>) — <reason>` for a whole file):"
                );
                for (_, id, what) in cdb_lint::Rule::ALL {
                    println!("  {id:<18} {what}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("cdb-lint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cdb-lint: cannot determine current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match cdb_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "cdb-lint: no [workspace] Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match cdb_lint::run_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cdb-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        println!("{d}");
    }
    let surface: Vec<String> = report
        .panic_surface
        .iter()
        .map(|(krate, n)| format!("{krate} {n}"))
        .collect();
    let summary = format!(
        "{} files, {} fns, {} call edges, {} lock-order edges; panic surface: {}",
        report.files_scanned,
        report.functions,
        report.call_edges,
        report.lock_edges.len(),
        surface.join(", ")
    );
    if report.diagnostics.is_empty() {
        eprintln!("cdb-lint: clean ({summary})");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "cdb-lint: {} finding(s) ({summary})",
            report.diagnostics.len()
        );
        ExitCode::FAILURE
    }
}
