//! The four per-file rule families, evaluated over a test-stripped token
//! stream.
//!
//! Each check is a linear scan with small windows — precise enough to catch
//! every violation class seen in this workspace's history, cheap enough to
//! run on every commit. The documented blind spots (e.g. slice indexing
//! with a computed subscript) are listed per rule.
//!
//! The panic and determinism checks are built on the exported site
//! detectors [`panic_sites`] and [`determinism_sites`] so the
//! interprocedural reachability passes (`reach.rs`) see exactly the same
//! site classes the per-file rules do.

use crate::lexer::{Tok, TokKind};
use crate::FileClass;

/// A raw finding before allow-directive filtering (file is added by the
/// caller).
#[derive(Debug)]
pub struct RawDiag {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Message.
    pub message: String,
}

/// A site that can panic at runtime, found by the rule-P detector.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Index of the site's anchor token in the scanned stream.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What kind of site: `unwrap`, `expect`, a bang macro name, or
    /// `index` for constant-subscript indexing.
    pub what: &'static str,
}

/// A site whose value or iteration order is nondeterministic, found by the
/// rule-D detector.
#[derive(Debug, Clone)]
pub struct DetSite {
    /// Index of the site's anchor token in the scanned stream.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending name (`HashMap`, `Instant`, `Ordering::Relaxed`, …).
    pub what: &'static str,
}

/// Run every applicable family over `toks`.
pub fn check(toks: &[Tok], class: FileClass) -> Vec<RawDiag> {
    let mut out = Vec::new();
    if class.float {
        check_float(toks, &mut out);
    }
    if class.determinism {
        check_determinism(toks, &mut out);
    }
    if class.panic {
        check_panic(toks, &mut out);
    }
    if class.lock {
        check_lock(toks, &mut out);
    }
    out
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Tok], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Rule F — float confinement (Thm 4.3). Outside `crates/num/src/fintv.rs`
/// and `crates/fp/`, no `f64`/`f32` tokens (types, paths, `as` casts) and
/// no float literals: the outward-rounded `FIntv` filter is the only door
/// finite precision may walk through.
fn check_float(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for t in toks {
        match &t.kind {
            TokKind::Ident(s) if s == "f64" || s == "f32" => {
                out.push(RawDiag {
                    line: t.line,
                    col: t.col,
                    rule: "float",
                    message: format!(
                        "`{s}` outside the FIntv boundary (crates/num/src/fintv.rs, crates/fp): \
                         floats are sound only behind the outward-rounded filter (Thm 4.3)"
                    ),
                });
            }
            TokKind::Float => {
                out.push(RawDiag {
                    line: t.line,
                    col: t.col,
                    rule: "float",
                    message: "float literal outside the FIntv boundary: use `Rat`/`Int` exact \
                              arithmetic, or route through `FIntv` (Thm 4.3)"
                        .to_owned(),
                });
            }
            _ => {}
        }
    }
}

/// Find every nondeterminism site in `toks`: `HashMap`/`HashSet`
/// (iteration order is randomized per process), `Instant`/`SystemTime`
/// (wall-clock-dependent values), `Ordering::Relaxed` atomics
/// (unsynchronized cross-thread reads).
pub fn determinism_sites(toks: &[Tok]) -> Vec<DetSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(s) = &t.kind else { continue };
        let what = match s.as_str() {
            "HashMap" => "HashMap",
            "HashSet" => "HashSet",
            "Instant" => "Instant",
            "SystemTime" => "SystemTime",
            "Relaxed"
                if ident_at(toks, i.wrapping_sub(1)) == Some("Ordering")
                    || punct_at(toks, i.wrapping_sub(1)) == Some(':') =>
            {
                "Ordering::Relaxed"
            }
            _ => continue,
        };
        out.push(DetSite {
            tok: i,
            line: t.line,
            col: t.col,
            what,
        });
    }
    out
}

/// Rule D — determinism. In result-producing crates (qe, datalog, calcf,
/// agg, plus modp/deps/update/server): none of the [`determinism_sites`]
/// classes may appear. This is the static twin of the workers∈{1,4}
/// byte-equality tests.
fn check_determinism(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for site in determinism_sites(toks) {
        let message = match site.what {
            "HashMap" | "HashSet" => format!(
                "`{}` in a result-producing crate: iteration order is nondeterministic; \
                 use `BTreeMap`/`BTreeSet` or prove the order never reaches an output",
                site.what
            ),
            "Instant" | "SystemTime" => format!(
                "`{}` in a result-producing crate: wall-clock values must not influence \
                 results (stats-only use needs an allow with that justification)",
                site.what
            ),
            _ => "`Ordering::Relaxed` in a result-producing crate: relaxed atomics may \
                 reorder observable effects; use `SeqCst` or justify why the value never \
                 reaches an output"
                .to_owned(),
        };
        out.push(RawDiag {
            line: site.line,
            col: site.col,
            rule: "determinism",
            message,
        });
    }
}

/// Find every panic-capable site in `toks`: `.unwrap()`/`.expect()`
/// combinators, the panicking bang macros, and constant-subscript indexing
/// (`v[0]` on an empty vec is the classic reachable panic). Known blind
/// spots: computed subscripts (`v[i]`) and arithmetic overflow are out of
/// scope for a token-level check. `self.unwrap(…)`/`self.expect(…)` are
/// method calls on a receiver the file itself defines, not
/// `Option`/`Result` combinators, and are skipped.
pub fn panic_sites(toks: &[Tok]) -> Vec<PanicSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokKind::Ident(s)
                if (s == "unwrap" || s == "expect")
                    && punct_at(toks, i.wrapping_sub(1)) == Some('.')
                    && punct_at(toks, i + 1) == Some('(')
                    && ident_at(toks, i.wrapping_sub(2)) != Some("self") =>
            {
                out.push(PanicSite {
                    tok: i,
                    line: t.line,
                    col: t.col,
                    what: if s == "unwrap" { "unwrap" } else { "expect" },
                });
            }
            TokKind::Ident(s)
                if punct_at(toks, i + 1) == Some('!')
                    && matches!(
                        s.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) =>
            {
                out.push(PanicSite {
                    tok: i,
                    line: t.line,
                    col: t.col,
                    what: match s.as_str() {
                        "panic" => "panic!",
                        "unreachable" => "unreachable!",
                        "todo" => "todo!",
                        _ => "unimplemented!",
                    },
                });
            }
            // `recv[<int>]`: constant-subscript indexing of a value.
            TokKind::Punct('[')
                if matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Int))
                    && punct_at(toks, i + 2) == Some(']')
                    && (matches!(
                        toks.get(i.wrapping_sub(1)).map(|t| &t.kind),
                        Some(TokKind::Ident(_))
                    ) || punct_at(toks, i.wrapping_sub(1)) == Some(')')
                        || punct_at(toks, i.wrapping_sub(1)) == Some(']'))
                    // `let [a] = …` patterns and attr paths never have an
                    // expression receiver, so the receiver check suffices;
                    // still skip `for`/`if`/`while`/`in`/`=` receivers.
                    && !matches!(
                        ident_at(toks, i.wrapping_sub(1)),
                        Some("in" | "if" | "while" | "for" | "return" | "else" | "match")
                    ) =>
            {
                out.push(PanicSite {
                    tok: i,
                    line: t.line,
                    col: t.col,
                    what: "index",
                });
            }
            _ => {}
        }
    }
    out
}

/// Rule P — panic surface. Library code must not contain any
/// [`panic_sites`] class directly; the interprocedural twin (`panic-reach`)
/// extends this to transitive calls.
fn check_panic(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for site in panic_sites(toks) {
        let message = match site.what {
            "unwrap" | "expect" => format!(
                "`.{}()` in library code: surface a typed error (`?`, `ok_or_else`) \
                 or justify the invariant with an allow",
                site.what
            ),
            "index" => "constant-subscript indexing in library code: panics when the \
                        container is short; use `.first()`/`.get(n)` or justify the \
                        length invariant with an allow"
                .to_owned(),
            bang => {
                format!("`{bang}` in library code: return a typed error so callers can recover")
            }
        };
        out.push(RawDiag {
            line: site.line,
            col: site.col,
            rule: "panic",
            message,
        });
    }
}

/// Rule L — lock discipline. Two `.lock(` acquisitions inside one
/// statement risk deadlock under any second lock order; a `Mutex` guard
/// bound by `let` and still live when `fan_out` (the CAD lifting pool's
/// entry point) publishes a job serializes the pool or deadlocks it if
/// workers need the same lock. The polynomial interner's entry point
/// (`canonicalize`, reached by every `MPoly` construction, i.e. every
/// polynomial arithmetic op) takes an interner shard lock itself, so
/// calling it — or naming the `intern` module in an expression — while a
/// guard is live nests two lock scopes the same way.
/// The interprocedural twin (`lock-order`, `locks.rs`) checks the global
/// acquisition-order graph for cycles.
fn check_lock(toks: &[Tok], out: &mut Vec<RawDiag>) {
    // (a) nested acquisition in one statement.
    let mut locks_in_stmt = 0usize;
    // (b) named guards: (binding name, brace depth at binding).
    let mut guards: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        match &toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                locks_in_stmt = 0;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|(_, d)| *d <= depth);
                locks_in_stmt = 0;
            }
            TokKind::Punct(';') => locks_in_stmt = 0,
            TokKind::Ident(s)
                if s == "lock"
                    && punct_at(toks, i.wrapping_sub(1)) == Some('.')
                    && punct_at(toks, i + 1) == Some('(') =>
            {
                locks_in_stmt += 1;
                if locks_in_stmt >= 2 {
                    out.push(RawDiag {
                        line: toks[i].line,
                        col: toks[i].col,
                        rule: "lock",
                        message: "second `.lock()` within one statement: nested guard \
                                  lifetimes invite lock-order inversion; split the statement \
                                  and drop the first guard early"
                            .to_owned(),
                    });
                }
            }
            TokKind::Ident(s) if s == "let" => {
                // `let [mut] NAME … = … .lock( … ;` → a named guard.
                let mut j = i + 1;
                if ident_at(toks, j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(toks, j) {
                    let name = name.to_owned();
                    // Scan to the end of the let statement.
                    let mut k = j;
                    let mut inner = 0usize;
                    let mut saw_lock = false;
                    while k < n {
                        match &toks[k].kind {
                            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => {
                                inner += 1
                            }
                            TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                                inner = inner.saturating_sub(1)
                            }
                            TokKind::Punct(';') if inner == 0 => break,
                            TokKind::Ident(s2)
                                if s2 == "lock"
                                    && punct_at(toks, k.wrapping_sub(1)) == Some('.')
                                    && punct_at(toks, k + 1) == Some('(') =>
                            {
                                saw_lock = true;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if saw_lock {
                        guards.push((name, depth));
                    }
                }
            }
            TokKind::Ident(s) if s == "drop" && punct_at(toks, i + 1) == Some('(') => {
                if let Some(name) = ident_at(toks, i + 2) {
                    guards.retain(|(g, _)| g != name);
                }
            }
            TokKind::Ident(s) if s == "fan_out" && !guards.is_empty() => {
                let held: Vec<&str> = guards.iter().map(|(g, _)| g.as_str()).collect();
                out.push(RawDiag {
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "lock",
                    message: format!(
                        "`fan_out` while mutex guard(s) `{}` may still be live: drop the \
                         guard before publishing work to the lifting pool",
                        held.join("`, `")
                    ),
                });
            }
            // Interner entry points: `canonicalize(…)` (the shard-locking
            // entry itself), a `.seal()` call (how every finished polynomial
            // is interned, `MPoly`'s operators included), or an `intern::…`
            // path in expression position. Doing any of them under a live
            // guard nests the caller's lock inside the interner shard lock.
            // `use crate::intern;` at module scope has no live guards and is
            // not flagged.
            TokKind::Ident(s)
                if !guards.is_empty()
                    && (s == "canonicalize"
                        || (s == "seal"
                            && punct_at(toks, i.wrapping_sub(1)) == Some('.')
                            && punct_at(toks, i + 1) == Some('('))
                        || (s == "intern" && punct_at(toks, i + 1) == Some(':'))) =>
            {
                let held: Vec<&str> = guards.iter().map(|(g, _)| g.as_str()).collect();
                out.push(RawDiag {
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "lock",
                    message: format!(
                        "interner entry (`{}`) while mutex guard(s) `{}` may still be live: \
                         polynomial construction takes an interner shard lock; drop the \
                         guard first",
                        s,
                        held.join("`, `")
                    ),
                });
            }
            _ => {}
        }
        i += 1;
    }
}
