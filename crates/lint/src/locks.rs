//! Interprocedural lock-order analysis (rule `lock-order`).
//!
//! Every `.lock()` site is classified into a **lock class** by its receiver
//! path and file (the serving stack's classes are enumerated in DESIGN.md
//! §9: master db, cache shards, interner shards, the lift pool, stdio). The
//! pass then computes, for every
//! function, which classes can be *held* when another class is *acquired* —
//! following calls made while a guard is live, with each callee's
//! transitively-acquired classes — and reports any cycle in the resulting
//! acquisition-order graph as a potential deadlock, with the witness edge
//! sites.
//!
//! Guard liveness is tracked with the same heuristics the per-file rule L
//! uses, refined by continuation shape: `let g = x.lock().unwrap…();` binds
//! a named guard (live to end of scope or `drop(g)`); a lock whose result
//! is consumed in-statement (`….lock()….clone()`) is a statement-scoped
//! temporary; a temporary still live at a `{` (the `match x.lock()… {`
//! scrutinee pattern) is promoted to a block-scoped guard.

use crate::graph::Graph;
use crate::items::FnItem;
use crate::lexer::{Tok, TokKind};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// One edge of the acquisition-order graph: `to` can be acquired while
/// `from` is held, first witnessed at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Class already held.
    pub from: String,
    /// Class acquired under it.
    pub to: String,
    /// Witness file (workspace-relative).
    pub file: String,
    /// Witness line (1-based).
    pub line: u32,
    /// Witness column (1-based).
    pub col: u32,
    /// Human-readable description of the witness.
    pub via: String,
}

/// The pass result: the deduplicated edge list (for the JSON report) and
/// any cycle diagnostics.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// Acquisition-order edges, sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// One diagnostic per distinct cycle.
    pub diags: Vec<Diagnostic>,
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

/// Walk the receiver chain backwards from a `.lock(` site (`i` = the
/// `lock` ident). Returns path segments in source order, e.g.
/// `self.inner.master.lock()` → `["self", "inner", "master"]`; indexing
/// and call parentheses are skipped (`shards[idx].lock()` → `["shards"]`).
fn receiver_segments(toks: &[Tok], i: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    // toks[i - 1] is the `.`; start left of it.
    let mut j = i.wrapping_sub(2);
    loop {
        if j >= toks.len() {
            break;
        }
        match &toks[j].kind {
            TokKind::Ident(s) => {
                segs.push(s.clone());
                // Continue through `.` or `::` chains.
                if punct_at(toks, j.wrapping_sub(1)) == Some('.') {
                    j = j.wrapping_sub(2);
                } else if punct_at(toks, j.wrapping_sub(1)) == Some(':')
                    && punct_at(toks, j.wrapping_sub(2)) == Some(':')
                {
                    j = j.wrapping_sub(3);
                } else {
                    break;
                }
            }
            TokKind::Punct(']') | TokKind::Punct(')') => {
                let close = toks[j].kind.clone();
                let open = if close == TokKind::Punct(']') {
                    '['
                } else {
                    '('
                };
                let close_ch = if open == '[' { ']' } else { ')' };
                let mut depth = 0usize;
                while j < toks.len() {
                    match punct_at(toks, j) {
                        Some(c) if c == close_ch => depth += 1,
                        Some(c) if c == open => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j = j.wrapping_sub(1);
                }
                j = j.wrapping_sub(1);
            }
            _ => break,
        }
        if segs.len() >= 6 {
            break;
        }
    }
    segs.reverse();
    segs
}

/// Classify a lock site into a lock class by receiver segments, then file.
/// The named classes mirror the serving-stack inventory in DESIGN.md §9;
/// everything else gets a deterministic `other:` class so new locks are
/// visible in the report without being misfiled.
fn lock_class(file: &str, segs: &[String]) -> String {
    for s in segs.iter().rev() {
        let class = match s.as_str() {
            "master" => "db-master",
            "stdin" | "stdout" | "stderr" => "stdio",
            _ => continue,
        };
        return class.to_owned();
    }
    let by_file = match file {
        "crates/qe/src/cache.rs" => Some("cache-shard"),
        "crates/poly/src/intern.rs" => Some("interner-shard"),
        "crates/qe/src/par.rs" => Some("lift-pool"),
        _ => None,
    };
    if let Some(c) = by_file {
        return c.to_owned();
    }
    let tag = segs
        .last()
        .map(String::as_str)
        .filter(|s| *s != "self")
        .unwrap_or_else(|| {
            file.rsplit('/')
                .next()
                .unwrap_or(file)
                .trim_end_matches(".rs")
        });
    format!("other:{tag}")
}

/// Index of the token after the `)` matching the `(` at `open`.
fn skip_parens(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match punct_at(toks, j) {
            Some('(') => depth += 1,
            Some(')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// What follows a `.lock(` call chain: the index just past the trailing
/// `.unwrap()`/`.expect(..)`/`.unwrap_or_else(..)` combinators.
fn after_lock_chain(toks: &[Tok], lock_ident: usize) -> usize {
    let mut j = skip_parens(toks, lock_ident + 1);
    loop {
        if punct_at(toks, j) == Some('.')
            && matches!(
                ident_at(toks, j + 1),
                Some("unwrap" | "expect" | "unwrap_or_else" | "unwrap_or" | "unwrap_or_default")
            )
            && punct_at(toks, j + 2) == Some('(')
        {
            j = skip_parens(toks, j + 2);
        } else {
            return j;
        }
    }
}

/// One acquisition inside a function body.
#[derive(Debug)]
struct Acq {
    class: String,
    line: u32,
    col: u32,
    held: BTreeSet<String>,
}

/// One call site with the classes held at it.
#[derive(Debug)]
struct CallHeld {
    call_idx: usize,
    held: BTreeSet<String>,
}

/// Scan one function body for acquisitions and call-under-guard events.
fn scan_fn(toks: &[Tok], item: &FnItem, file: &str) -> (Vec<Acq>, Vec<CallHeld>) {
    let (b0, b1) = item.body;
    let mut acqs = Vec::new();
    let mut call_helds = Vec::new();
    if b1 <= b0 {
        return (acqs, call_helds);
    }
    // Guard state.
    let mut named: Vec<(String, usize, String)> = Vec::new(); // (name, depth, class)
    let mut blocks: Vec<(usize, String)> = Vec::new(); // (depth, class)
    let mut stmts: Vec<String> = Vec::new();
    let mut pending_let: Option<String> = None;
    let mut depth = 0usize;
    let mut call_ptr = 0usize;

    let held_now =
        |named: &[(String, usize, String)], blocks: &[(usize, String)], stmts: &[String]| {
            let mut h: BTreeSet<String> = BTreeSet::new();
            h.extend(named.iter().map(|(_, _, c)| c.clone()));
            h.extend(blocks.iter().map(|(_, c)| c.clone()));
            h.extend(stmts.iter().cloned());
            h
        };

    let mut i = b0;
    while i < b1 {
        // Record held classes at each extracted call site.
        while call_ptr < item.calls.len() && item.calls[call_ptr].tok < i {
            call_ptr += 1;
        }
        if call_ptr < item.calls.len() && item.calls[call_ptr].tok == i {
            let held = held_now(&named, &blocks, &stmts);
            if !held.is_empty() {
                call_helds.push(CallHeld {
                    call_idx: call_ptr,
                    held,
                });
            }
            call_ptr += 1;
        }
        match &toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                // A temporary still live at a block open is a scrutinee
                // guard: it outlives the whole block (`match x.lock()… {`).
                for c in stmts.drain(..) {
                    blocks.push((depth, c));
                }
                pending_let = None;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                blocks.retain(|(d, _)| *d <= depth);
                named.retain(|(_, d, _)| *d <= depth);
            }
            TokKind::Punct(';') => {
                stmts.clear();
                pending_let = None;
            }
            TokKind::Ident(kw) if kw == "let" => {
                let mut j = i + 1;
                if ident_at(toks, j) == Some("mut") {
                    j += 1;
                }
                pending_let = ident_at(toks, j).map(str::to_owned);
            }
            TokKind::Ident(kw) if kw == "drop" && punct_at(toks, i + 1) == Some('(') => {
                if let Some(name) = ident_at(toks, i + 2) {
                    named.retain(|(g, _, _)| g != name);
                }
            }
            TokKind::Ident(kw)
                if kw == "lock"
                    && punct_at(toks, i.wrapping_sub(1)) == Some('.')
                    && punct_at(toks, i + 1) == Some('(') =>
            {
                let segs = receiver_segments(toks, i);
                let class = lock_class(file, &segs);
                acqs.push(Acq {
                    class: class.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    held: held_now(&named, &blocks, &stmts),
                });
                let after = after_lock_chain(toks, i);
                if punct_at(toks, after) == Some(';') {
                    // `… = x.lock().unwrap…();` — a named guard if a let
                    // binding is pending, otherwise dropped immediately.
                    if let Some(name) = pending_let.take() {
                        named.push((name, depth, class));
                    }
                } else {
                    // Result consumed in-statement: a temporary guard live
                    // to the end of the statement (or promoted at `{`).
                    stmts.push(class);
                }
            }
            _ => {}
        }
        i += 1;
    }
    (acqs, call_helds)
}

/// Run the lock-order pass over the whole graph. `toks` is aligned with
/// `g.files`.
pub fn analyze(g: &Graph, toks: &[Vec<Tok>]) -> LockAnalysis {
    let nfns = g.fns.len();
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(nfns);
    let mut call_helds: Vec<Vec<CallHeld>> = Vec::with_capacity(nfns);
    for f in &g.fns {
        let file_toks = toks.get(f.file).map(Vec::as_slice).unwrap_or(&[]);
        let rel = g.files.get(f.file).map(|fi| fi.rel.as_str()).unwrap_or("");
        let (a, c) = scan_fn(file_toks, f, rel);
        acqs.push(a);
        call_helds.push(c);
    }
    // Transitively acquired classes per function (union over candidates —
    // a must-not-happen property wants the over-approximation).
    let mut trans: Vec<BTreeSet<String>> = acqs
        .iter()
        .map(|a| a.iter().map(|x| x.class.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for f in 0..nfns {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for cands in &g.resolved[f] {
                for &c in cands {
                    for cls in &trans[c] {
                        if !trans[f].contains(cls) {
                            add.insert(cls.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                trans[f].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Edge set with first witness (functions are in deterministic id
    // order, events in source order, so the first witness is stable).
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, file: &str, line: u32, col: u32, via: String| {
        edges
            .entry((from.to_owned(), to.to_owned()))
            .or_insert_with(|| LockEdge {
                from: from.to_owned(),
                to: to.to_owned(),
                file: file.to_owned(),
                line,
                col,
                via,
            });
    };
    for f in 0..nfns {
        let item = &g.fns[f];
        let rel = g
            .files
            .get(item.file)
            .map(|fi| fi.rel.as_str())
            .unwrap_or("");
        for a in &acqs[f] {
            for h in &a.held {
                add_edge(
                    h,
                    &a.class,
                    rel,
                    a.line,
                    a.col,
                    format!(
                        "`{}` acquires {} while holding {}",
                        item.display(),
                        a.class,
                        h
                    ),
                );
            }
        }
        for ch in &call_helds[f] {
            let Some(call) = item.calls.get(ch.call_idx) else {
                continue;
            };
            let Some(cands) = g.resolved[f].get(ch.call_idx) else {
                continue;
            };
            for &cand in cands {
                for cls in &trans[cand] {
                    for h in &ch.held {
                        add_edge(
                            h,
                            cls,
                            rel,
                            call.line,
                            call.col,
                            format!(
                                "`{}` calls `{}` (which acquires {}) while holding {}",
                                item.display(),
                                g.fns[cand].display(),
                                cls,
                                h
                            ),
                        );
                    }
                }
            }
        }
    }
    let edges: Vec<LockEdge> = edges.into_values().collect();
    let diags = find_cycles(&edges);
    LockAnalysis { edges, diags }
}

/// Detect cycles in the acquisition-order graph; one diagnostic per
/// distinct cycle (deduplicated by its set of classes), anchored at the
/// first edge's witness.
fn find_cycles(edges: &[LockEdge]) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let edge_of = |from: &str, to: &str| edges.iter().find(|e| e.from == from && e.to == to);
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut diags = Vec::new();
    for e in edges {
        // A cycle through edge (from → to) exists iff `from` is reachable
        // from `to`. BFS with sorted neighbors gives a deterministic,
        // shortest witness path.
        let path = bfs_path(&adj, &e.to, &e.from);
        let Some(path) = path else { continue };
        // Full cycle: from → to → … → from (the path already ends at
        // `from`, closing the loop).
        let mut cycle: Vec<String> = Vec::with_capacity(path.len() + 1);
        cycle.push(e.from.clone());
        cycle.extend(path.iter().map(|s| (*s).to_owned()));
        let mut key: Vec<String> = cycle.clone();
        key.sort();
        key.dedup();
        if !seen.insert(key) {
            continue;
        }
        let chain = cycle.join(" → ");
        let mut witnesses: Vec<String> = Vec::new();
        for w in cycle.windows(2) {
            if let [a, b] = w {
                if let Some(edge) = edge_of(a, b) {
                    witnesses.push(format!("{} ({}:{})", edge.via, edge.file, edge.line));
                }
            }
        }
        diags.push(Diagnostic {
            file: e.file.clone(),
            line: e.line,
            col: e.col,
            rule: "lock-order",
            message: format!(
                "lock-acquisition-order cycle: {chain}; {}",
                witnesses.join("; ")
            ),
        });
    }
    diags
}

/// Shortest path `from → … → to` over sorted adjacency (inclusive of both
/// endpoints); `None` when unreachable. `from == to` needs an actual edge
/// (self-loop) to count.
fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    // Self-loop: from == to with a direct edge.
    if from == to {
        return adj
            .get(from)
            .is_some_and(|s| s.contains(to))
            .then(|| vec![from]);
    }
    let mut prev: BTreeMap<&'a str, &'a str> = BTreeMap::new();
    let mut queue: Vec<&'a str> = vec![from];
    let mut qi = 0usize;
    let mut goal: Option<&'a str> = None;
    'search: while qi < queue.len() {
        let cur = *queue.get(qi)?;
        qi += 1;
        if let Some(nexts) = adj.get(cur) {
            for &n in nexts {
                if prev.contains_key(n) || n == from {
                    continue;
                }
                prev.insert(n, cur);
                if n == to {
                    goal = Some(n);
                    break 'search;
                }
                queue.push(n);
            }
        }
    }
    let mut cur = goal?;
    let mut path = vec![cur];
    while cur != from {
        cur = prev.get(cur).copied()?;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::lexer::lex;

    fn analyze_src(files: &[(&str, &str)]) -> LockAnalysis {
        let lexed: Vec<(String, Vec<Tok>)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_owned(), lex(src).toks))
            .collect();
        let g = graph::build(&lexed);
        let toks: Vec<Vec<Tok>> = lexed.into_iter().map(|(_, t)| t).collect();
        analyze(&g, &toks)
    }

    #[test]
    fn classifies_serving_stack_receivers() {
        let toks = lex("fn f(x: &I) { x.inner.master.lock().u(); }").toks;
        let i = toks
            .iter()
            .position(|t| matches!(&t.kind, TokKind::Ident(s) if s == "lock"))
            .unwrap();
        let segs = receiver_segments(&toks, i);
        assert_eq!(segs, vec!["x", "inner", "master"]);
        assert_eq!(
            lock_class("crates/server/src/session.rs", &segs),
            "db-master"
        );
        assert_eq!(
            lock_class("crates/qe/src/cache.rs", &["shard".to_owned()]),
            "cache-shard"
        );
        assert_eq!(
            lock_class("crates/x/src/y.rs", &["self".to_owned(), "loc".to_owned()]),
            "other:loc"
        );
    }

    #[test]
    fn opposite_order_acquisition_is_a_cycle() {
        let a = analyze_src(&[(
            "crates/s/src/l.rs",
            "pub fn ab(s: &S) {\n  let g = s.master.lock().unwrap_or_else(e);\n  let h = s.loc.lock().unwrap_or_else(e);\n  use_both(g, h);\n}\npub fn ba(s: &S) {\n  let h = s.loc.lock().unwrap_or_else(e);\n  let g = s.master.lock().unwrap_or_else(e);\n  use_both(g, h);\n}\nfn use_both(a: G, b: H) {}\n",
        )]);
        assert!(a
            .edges
            .iter()
            .any(|e| e.from == "db-master" && e.to == "other:loc"));
        assert!(a
            .edges
            .iter()
            .any(|e| e.from == "other:loc" && e.to == "db-master"));
        assert_eq!(a.diags.len(), 1, "one deduplicated cycle: {:?}", a.diags);
        assert!(a.diags[0].message.contains("cycle"));
    }

    #[test]
    fn call_under_guard_propagates() {
        let a = analyze_src(&[(
            "crates/s/src/l.rs",
            "pub fn outer(s: &S) {\n  let g = s.master.lock().unwrap_or_else(e);\n  helper(s);\n  g.touch();\n}\nfn helper(s: &S) {\n  let q = s.loc.lock().unwrap_or_else(e);\n  q.touch();\n}\n",
        )]);
        assert!(
            a.edges
                .iter()
                .any(|e| e.from == "db-master" && e.to == "other:loc"),
            "edges: {:?}",
            a.edges
        );
        assert!(a.diags.is_empty());
    }

    #[test]
    fn stmt_temp_guard_does_not_leak_past_statement() {
        let a = analyze_src(&[(
            "crates/s/src/l.rs",
            "pub fn f(s: &S) {\n  let v = s.master.lock().unwrap_or_else(e).clone();\n  helper(s);\n}\nfn helper(s: &S) {\n  let q = s.loc.lock().unwrap_or_else(e);\n  q.touch();\n}\n",
        )]);
        assert!(a.edges.is_empty(), "edges: {:?}", a.edges);
    }

    #[test]
    fn match_scrutinee_guard_lives_through_block() {
        let a = analyze_src(&[(
            "crates/s/src/l.rs",
            "pub fn f(s: &S) {\n  match *s.loc.lock().unwrap_or_else(e) {\n    X => helper(s),\n    _ => {}\n  }\n}\nfn helper(s: &S) {\n  let q = s.master.lock().unwrap_or_else(e);\n  q.touch();\n}\n",
        )]);
        assert!(
            a.edges
                .iter()
                .any(|e| e.from == "other:loc" && e.to == "db-master"),
            "edges: {:?}",
            a.edges
        );
    }

    #[test]
    fn dropped_guard_clears_held_set() {
        let a = analyze_src(&[(
            "crates/s/src/l.rs",
            "pub fn f(s: &S) {\n  let g = s.master.lock().unwrap_or_else(e);\n  drop(g);\n  helper(s);\n}\nfn helper(s: &S) {\n  let q = s.loc.lock().unwrap_or_else(e);\n  q.touch();\n}\n",
        )]);
        assert!(a.edges.is_empty(), "edges: {:?}", a.edges);
    }
}
