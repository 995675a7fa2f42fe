#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

//! `cdb-lint`: the workspace invariant checker.
//!
//! The QE pipeline's correctness story (`⊨_QE^F`, Thms 4.1–4.3) depends on
//! invariants that rustc cannot see: floats may enter only through the
//! outward-rounded `FIntv` boundary, result-producing modules must be
//! deterministic for every worker count, library crates must surface typed
//! errors instead of panicking, and lock acquisition must stay flat. This
//! crate tokenizes every non-test `.rs` file in the workspace (handwritten
//! lexer — no dependencies) and enforces four per-file rule families:
//!
//! | id            | family            | guards                               |
//! |---------------|-------------------|--------------------------------------|
//! | `float`       | float confinement | Thm 4.3 split-word boundary          |
//! | `determinism` | determinism       | byte-identical parallel merges       |
//! | `panic`       | panic surface     | typed-error robustness               |
//! | `lock`        | lock discipline   | deadlock-freedom of the fan-out      |
//!
//! On top of the per-file scan, a lightweight item parser ([`items`]) and a
//! symbol-resolved workspace call graph ([`graph`]) drive three
//! interprocedural passes (DESIGN.md §9):
//!
//! | id                  | pass              | guards                          |
//! |---------------------|-------------------|---------------------------------|
//! | `lock-order`        | lock-order cycles | global acquisition order        |
//! | `panic-reach`       | panic reach       | public API panic surface        |
//! | `float-taint`       | float taint       | laundering past the boundary    |
//! | `determinism-taint` | determinism taint | cross-crate nondeterminism      |
//!
//! Every rule has a machine-readable escape hatch:
//!
//! ```text
//! // cdb-lint: allow(<rule>) — <reason>        (this line or the next)
//! // cdb-lint: allow-file(<rule>) — <reason>   (whole file)
//! ```
//!
//! A directive without a written reason is itself a diagnostic, as is an
//! allow that suppresses nothing (`unused-allow`) — annotations cannot rot
//! silently in either direction.

pub mod graph;
pub mod items;
pub mod lexer;
pub mod locks;
mod reach;
pub mod rules;

use lexer::{lex, Comment, Tok, TokKind};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule families (plus directive hygiene, which is not suppressible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// F: float confinement to the `FIntv` boundary.
    Float,
    /// D: determinism of result-producing modules.
    Determinism,
    /// P: panic surface of library crates.
    Panic,
    /// L: lock discipline.
    Lock,
    /// Interprocedural: cycles in the lock-acquisition order.
    LockOrder,
    /// Interprocedural: public fns that can transitively panic.
    PanicReach,
    /// Interprocedural: confined code calling float-signature functions.
    FloatTaint,
    /// Interprocedural: determinism-scoped code reaching nondeterminism.
    DeterminismTaint,
}

impl Rule {
    /// Every rule family with its id and one-line summary — the single
    /// source of truth for [`Rule::from_id`], directive error text, and
    /// the CLI help.
    pub const ALL: &'static [(Rule, &'static str, &'static str)] = &[
        (
            Rule::Float,
            "float",
            "f64/f32 or float literals outside the FIntv boundary",
        ),
        (
            Rule::Determinism,
            "determinism",
            "HashMap/HashSet, Instant/SystemTime, Ordering::Relaxed in result-producing code",
        ),
        (
            Rule::Panic,
            "panic",
            "unwrap/expect/panic!-family/constant-subscript indexing in library code",
        ),
        (
            Rule::Lock,
            "lock",
            "nested .lock() in one statement; guards live across the parallel fan-out",
        ),
        (
            Rule::LockOrder,
            "lock-order",
            "cycle in the interprocedural lock-acquisition-order graph",
        ),
        (
            Rule::PanicReach,
            "panic-reach",
            "public fn can transitively reach an unjustified panic site",
        ),
        (
            Rule::FloatTaint,
            "float-taint",
            "float-confined code calls a fn whose signature carries f64/f32",
        ),
        (
            Rule::DeterminismTaint,
            "determinism-taint",
            "determinism-scoped code can reach a nondeterministic source",
        ),
    ];

    /// The machine-readable rule id used in directives and diagnostics.
    pub fn id(self) -> &'static str {
        Rule::ALL
            .iter()
            .find(|(r, _, _)| *r == self)
            .map(|(_, id, _)| *id)
            .unwrap_or("unknown")
    }

    /// Parse a rule id.
    pub fn from_id(s: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .find(|(_, id, _)| *id == s)
            .map(|(r, _, _)| *r)
    }

    /// Comma-separated list of every rule id (for error messages and help).
    pub fn id_list() -> String {
        let ids: Vec<&str> = Rule::ALL.iter().map(|(_, id, _)| *id).collect();
        ids.join(", ")
    }
}

/// One finding, keyed by workspace-relative path and 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`float`, `lock-order`, …, `directive`, `unused-allow`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Which rule families apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// Rule F applies (everywhere except the FIntv boundary and `cdb-fp`).
    pub float: bool,
    /// Rule D applies (result-producing crates: qe, datalog, calcf, agg).
    pub determinism: bool,
    /// Rule P applies (library code; binaries may panic on startup).
    pub panic: bool,
    /// Rule L applies (everywhere).
    pub lock: bool,
}

/// Classify a workspace-relative path (`/`-separated).
pub fn classify(rel: &str) -> FileClass {
    let is_bin = rel.contains("/src/bin/") || rel.ends_with("/main.rs");
    FileClass {
        float: rel != "crates/num/src/fintv.rs" && !rel.starts_with("crates/fp/"),
        determinism: [
            "crates/qe/",
            "crates/datalog/",
            "crates/calcf/",
            "crates/agg/",
        ]
        .iter()
        .any(|p| rel.starts_with(p))
            // The modular-arithmetic substrate of the resultant kernels
            // (DESIGN.md §11) produces result bytes directly (CRT residues
            // become polynomial coefficients), so it answers to the same
            // determinism bar as the result-producing crates: u64 modular
            // arithmetic is fine, HashMap/Relaxed/wall-clocks are not.
            || rel == "crates/num/src/modp.rs"
            // The update path (DESIGN.md §12) decides *which* derivations
            // re-run and in what order from their read sets; iteration
            // order over those sets becomes evaluation order, so it answers
            // to the determinism bar (BTree containers, no wall-clocks).
            || rel == "crates/core/src/update.rs"
            // The serving layer (DESIGN.md §13) promises byte-identical
            // results across session interleavings; nothing order- or
            // clock-dependent may sit on its result paths, and the
            // session loop must never panic out from under a request.
            || rel.starts_with("crates/server/"),
        panic: !is_bin,
        lock: true,
    }
}

/// Directory names never scanned: build output, VCS, vendored dev shims,
/// test/bench/example code (rule families target library code; fixtures
/// under `tests/` are the linter's own corpus).
const SKIP_DIRS: &[&str] = &[
    "target", ".git", "devshim", "tests", "benches", "examples", "fixtures",
];

/// Path prefixes never scanned (bench code is an allowed float zone and is
/// not part of the library panic surface).
const SKIP_PREFIXES: &[&str] = &["crates/bench/", "stmtbench/"];

/// An allow directive parsed from a comment.
#[derive(Debug)]
pub(crate) struct AllowDirective {
    pub(crate) rules: Vec<Rule>,
    /// None = file scope.
    pub(crate) target_line: Option<u32>,
    /// Line the directive itself is on (for unused-allow reporting).
    pub(crate) at_line: u32,
    pub(crate) used: std::cell::Cell<bool>,
}

/// Whether an allow directive covers `rule` at exactly `line` (or the
/// whole file). Marks the directive used.
pub(crate) fn allowed_line(allows: &[AllowDirective], rule: Rule, line: u32) -> bool {
    allows.iter().any(|a| {
        a.rules.contains(&rule)
            && match a.target_line {
                None => true,
                Some(t) => t == line,
            }
            && {
                a.used.set(true);
                true
            }
    })
}

/// Whether an allow directive covers `rule` anywhere in `[lo, hi]` (or the
/// whole file) — used to sanction a *definition* (a fn signature or body
/// span) rather than a single call site. Marks the directive used.
pub(crate) fn allowed_span(allows: &[AllowDirective], rule: Rule, lo: u32, hi: u32) -> bool {
    allows.iter().any(|a| {
        a.rules.contains(&rule)
            && match a.target_line {
                None => true,
                Some(t) => t >= lo && t <= hi,
            }
            && {
                a.used.set(true);
                true
            }
    })
}

/// Per-file analysis state threaded into the interprocedural passes.
struct FileCtx {
    rel: String,
    class: FileClass,
    toks: Vec<Tok>,
    allows: Vec<AllowDirective>,
    diags: Vec<Diagnostic>,
}

/// Run the per-file stage on one file: lex, strip test scopes, parse
/// directives, evaluate the per-file rule families through the allows.
/// The unused-allow sweep runs later, after the interprocedural passes
/// have had their chance to use each directive.
fn file_stage(rel: &str, src: &str) -> FileCtx {
    let class = classify(rel);
    let lexed = lex(src);
    let (toks, skipped) = strip_test_scopes(&lexed.toks);

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut allows: Vec<AllowDirective> = Vec::new();
    for c in &lexed.comments {
        if skipped.iter().any(|&(lo, hi)| c.line >= lo && c.line <= hi) {
            continue;
        }
        parse_directive(rel, c, &toks, &mut allows, &mut diags);
    }

    let raw = rules::check(&toks, class);
    for d in raw {
        let suppressed = Rule::from_id(d.rule).is_some_and(|r| allowed_line(&allows, r, d.line));
        if !suppressed {
            diags.push(Diagnostic {
                file: rel.to_owned(),
                line: d.line,
                col: d.col,
                rule: d.rule,
                message: d.message,
            });
        }
    }

    FileCtx {
        rel: rel.to_owned(),
        class,
        toks,
        allows,
        diags,
    }
}

/// Lint a set of files as one unit: the per-file rule families plus the
/// call-graph passes (lock order, panic reachability, float/determinism
/// taint). `files` is `(workspace-relative path, source)`.
pub fn lint_files(files: &[(String, String)]) -> Report {
    let mut inputs: Vec<&(String, String)> = files.iter().collect();
    inputs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut ctxs: Vec<FileCtx> = inputs
        .iter()
        .map(|(rel, src)| file_stage(rel, src))
        .collect();

    // The call graph and the interprocedural passes see the same
    // test-stripped token streams the per-file rules saw, in the same
    // (path-sorted) file order, so file indices line up everywhere.
    let graph_files: Vec<(String, Vec<Tok>)> = ctxs
        .iter()
        .map(|c| (c.rel.clone(), c.toks.clone()))
        .collect();
    let g = graph::build(&graph_files);
    let toks: Vec<Vec<Tok>> = graph_files.into_iter().map(|(_, t)| t).collect();
    let classes: Vec<FileClass> = ctxs.iter().map(|c| c.class).collect();
    let allows: Vec<Vec<AllowDirective>> = ctxs
        .iter_mut()
        .map(|c| std::mem::take(&mut c.allows))
        .collect();

    let lock = locks::analyze(&g, &toks);
    let (pr_diags, panic_surface) = reach::panic_reach(&g, &toks, &classes, &allows);
    let ft_diags = reach::float_taint(&g, &toks, &classes, &allows);
    let dt_diags = reach::determinism_taint(&g, &toks, &classes, &allows);

    let file_index: BTreeMap<&str, usize> = ctxs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.rel.as_str(), i))
        .collect();

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for c in &ctxs {
        diagnostics.extend(c.diags.iter().cloned());
    }
    for d in lock
        .diags
        .iter()
        .chain(pr_diags.iter())
        .chain(ft_diags.iter())
        .chain(dt_diags.iter())
    {
        let suppressed = Rule::from_id(d.rule).is_some_and(|r| {
            file_index
                .get(d.file.as_str())
                .and_then(|&i| allows.get(i))
                .is_some_and(|a| allowed_line(a, r, d.line))
        });
        if !suppressed {
            diagnostics.push(d.clone());
        }
    }
    for (c, file_allows) in ctxs.iter().zip(&allows) {
        for a in file_allows {
            if !a.used.get() {
                diagnostics.push(Diagnostic {
                    file: c.rel.clone(),
                    line: a.at_line,
                    col: 1,
                    rule: "unused-allow",
                    message: "allow directive suppresses nothing; remove it".to_owned(),
                });
            }
        }
    }
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    Report {
        diagnostics,
        files_scanned: ctxs.len(),
        functions: g.fns.len(),
        call_edges: g.edge_count(),
        lock_edges: lock.edges,
        panic_surface,
    }
}

/// Lint one file given its workspace-relative path and contents (a
/// single-file view of [`lint_files`]). Exposed for the fixture tests.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    lint_files(&[(rel_path.to_owned(), src.to_owned())]).diagnostics
}

/// Parse a `cdb-lint:` directive out of one comment, if present.
fn parse_directive(
    rel: &str,
    c: &Comment,
    toks: &[Tok],
    allows: &mut Vec<AllowDirective>,
    diags: &mut Vec<Diagnostic>,
) {
    let text = c.text.trim_start_matches(['/', '!']).trim();
    let Some(rest) = text.strip_prefix("cdb-lint:") else {
        return;
    };
    let rest = rest.trim();
    let mut bad = |msg: String| {
        diags.push(Diagnostic {
            file: rel.to_owned(),
            line: c.line,
            col: c.col,
            rule: "directive",
            message: msg,
        });
    };
    let (file_scope, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
        (true, b)
    } else if let Some(b) = rest.strip_prefix("allow(") {
        (false, b)
    } else {
        bad(format!("unknown cdb-lint directive: `{rest}`"));
        return;
    };
    let Some(close) = body.find(')') else {
        bad("unterminated rule list in allow directive".to_owned());
        return;
    };
    let mut rules_list = Vec::new();
    for name in body[..close].split(',') {
        let name = name.trim();
        match Rule::from_id(name) {
            Some(r) => rules_list.push(r),
            None => {
                bad(format!(
                    "unknown rule `{name}` (expected one of: {})",
                    Rule::id_list()
                ));
                return;
            }
        }
    }
    if rules_list.is_empty() {
        bad("empty rule list in allow directive".to_owned());
        return;
    }
    // Reason: everything after the `)`, stripped of a dash separator.
    let reason = body[close + 1..]
        .trim()
        .trim_start_matches(['—', '–', '-'])
        .trim();
    if reason.is_empty() {
        bad("allow directive without a written reason (use `— <why>`)".to_owned());
        return;
    }
    let target_line = if file_scope {
        None
    } else if c.has_code_before {
        Some(c.line)
    } else {
        // The next line bearing a code token.
        toks.iter().map(|t| t.line).find(|&l| l > c.line)
    };
    if !file_scope && target_line.is_none() {
        bad("allow directive with no following code line".to_owned());
        return;
    }
    allows.push(AllowDirective {
        rules: rules_list,
        target_line,
        at_line: c.line,
        used: std::cell::Cell::new(false),
    });
}

/// Drop tokens inside `#[cfg(test)]` items and `mod tests { … }` blocks.
/// Returns the surviving tokens and the skipped line ranges (inclusive), so
/// directives inside test code are ignored too.
fn strip_test_scopes(toks: &[Tok]) -> (Vec<Tok>, Vec<(u32, u32)>) {
    let mut out = Vec::with_capacity(toks.len());
    let mut skipped = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    let ident =
        |t: Option<&Tok>, w: &str| matches!(t, Some(Tok { kind: TokKind::Ident(s), .. }) if s == w);
    let punct = |t: Option<&Tok>, c: char| matches!(t, Some(Tok { kind: TokKind::Punct(p), .. }) if *p == c);
    while i < n {
        // `#[...]` outer attribute: scan it; if it is a cfg(test)-style
        // attribute, skip the attributed item (including stacked attrs).
        if punct(toks.get(i), '#') && punct(toks.get(i + 1), '[') {
            let (attr_end, is_test) = scan_attr(toks, i);
            if is_test {
                let start_line = toks[i].line;
                let mut j = attr_end;
                // Skip any further attributes on the same item.
                while punct(toks.get(j), '#') && punct(toks.get(j + 1), '[') {
                    let (e, _) = scan_attr(toks, j);
                    j = e;
                }
                let end = skip_item(toks, j);
                let end_line = toks
                    .get(end.saturating_sub(1))
                    .map_or(start_line, |t| t.line);
                skipped.push((start_line, end_line));
                i = end;
                continue;
            }
            // Keep the attribute tokens.
            for t in toks.get(i..attr_end).unwrap_or(&[]) {
                out.push(t.clone());
            }
            i = attr_end;
            continue;
        }
        // `mod tests {` / `mod test {` without an attribute.
        if ident(toks.get(i), "mod")
            && (ident(toks.get(i + 1), "tests") || ident(toks.get(i + 1), "test"))
            && punct(toks.get(i + 2), '{')
        {
            let start_line = toks[i].line;
            let end = skip_item(toks, i);
            let end_line = toks
                .get(end.saturating_sub(1))
                .map_or(start_line, |t| t.line);
            skipped.push((start_line, end_line));
            i = end;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    (out, skipped)
}

/// Scan the attribute starting at `i` (`#` `[` …). Returns the index one
/// past the closing `]` and whether the attribute mentions `cfg` + `test`
/// (covers `#[cfg(test)]` and `#[cfg(any(test, …))]`).
fn scan_attr(toks: &[Tok], i: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, saw_cfg && saw_test && !saw_not);
                }
            }
            TokKind::Ident(s) if s == "cfg" => saw_cfg = true,
            TokKind::Ident(s) if s == "test" => saw_test = true,
            TokKind::Ident(s) if s == "not" => saw_not = true,
            _ => {}
        }
        j += 1;
    }
    (toks.len(), false)
}

/// Skip one item starting at `i`: to the `;` closing a bodyless item, or to
/// the `}` matching its first `{`.
fn skip_item(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            TokKind::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// A whole-tree lint report.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `fn` items in the call graph.
    pub functions: usize,
    /// Number of resolved call edges (candidate pairs).
    pub call_edges: usize,
    /// The lock-acquisition-order edges.
    pub lock_edges: Vec<locks::LockEdge>,
    /// Per-crate count of public fns that can reach any panic site.
    pub panic_surface: BTreeMap<String, usize>,
}

/// Lint every non-test `.rs` file under `root`.
pub fn run_root(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_str()
            .map(|s| s.replace('\\', "/"))
            .unwrap_or_default();
        inputs.push((rel_str, src));
    }
    Ok(lint_files(&inputs))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            if SKIP_PREFIXES
                .iter()
                .any(|p| format!("{rel_str}/").starts_with(p))
            {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Find the enclosing workspace root: the nearest ancestor of `start`
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}
