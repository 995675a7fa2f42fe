//! A lightweight item parser over the lexed token stream.
//!
//! Extracts `fn` items with their `impl`/`mod` nesting and the syntactic
//! call sites inside each body (`path::f(...)`, `f(...)`, `recv.method(...)`)
//! — just enough structure for the interprocedural passes to build a
//! workspace call graph without a real Rust parser. Macro *invocations*
//! (`name!(…)`) are not calls, but calls appearing inside their argument
//! tokens are still extracted (a `write!(f, "{}", x.to_f64())` launders a
//! float exactly like a plain call would).
//!
//! The parser is conservative where the grammar is ambiguous: a construct
//! it cannot place simply produces no item or no call edge, never a bogus
//! one with a made-up position.

use crate::lexer::{Tok, TokKind};

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (the ident directly before the `(`).
    pub name: String,
    /// For `qual::name(...)`, the last path segment before `name`
    /// (`intern::canonicalize` → `intern`, `Self::new` → `Self`). `None`
    /// for bare calls and method calls.
    pub qual: Option<String>,
    /// True for `recv.name(...)` method syntax.
    pub method: bool,
    /// True when that receiver is the bare `self` (`self.name(...)`, not
    /// `self.field.name(...)`).
    pub self_recv: bool,
    /// The receiver of `recv.name(...)` when it is a bare local name (not
    /// `self`, a field, a call result or a path).
    pub recv: Option<String>,
    /// The field `f` of `self.f.name(...)` (not a deeper field path).
    pub self_field: Option<String>,
    /// Index of the name token in the file's scanned stream.
    pub tok: usize,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into the graph's file table (set by the graph builder; the
    /// per-file parser leaves it 0).
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_name: Option<String>,
    /// True when that enclosing scope is a `trait` declaration (its
    /// default methods dispatch `self` calls to implementors).
    pub in_trait: bool,
    /// Enclosing module path inside the file (`a::b`, empty at top level).
    pub mod_path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Declared `pub` (plain visibility only — `pub(crate)` and narrower
    /// do not extend the public API surface).
    pub is_pub: bool,
    /// Whether the parameter list contains `self` (method vs. free/assoc).
    pub has_self: bool,
    /// Parameters declared `T`, `&T` or `&mut T` that the body never
    /// rebinds, as `(name, T)` (a path type by its last segment, `Self` as
    /// the enclosing impl's type): a method called on one of them is `T`'s.
    pub typed_params: Vec<(String, String)>,
    /// Token range `[start, end)` of the signature (from `fn` to the body
    /// `{` or the terminating `;`).
    pub sig: (usize, usize),
    /// Token range `[start, end)` of the body including both braces;
    /// `(0, 0)` for bodyless declarations.
    pub body: (usize, usize),
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// Display path for diagnostics: `Type::name`, `mod::name`, or `name`.
    pub fn display(&self) -> String {
        match (&self.impl_name, self.mod_path.is_empty()) {
            (Some(t), _) => format!("{t}::{}", self.name),
            (None, false) => format!("{}::{}", self.mod_path, self.name),
            (None, true) => self.name.clone(),
        }
    }
}

/// Reserved words that look like `ident (` in expression or item position
/// but are never calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "move", "where", "impl",
    "dyn", "as", "ref", "mut", "pub", "crate", "super", "use", "mod", "trait", "struct", "enum",
    "union", "type", "const", "static", "unsafe", "extern", "async", "await", "else", "break",
    "continue", "yield", "box",
];

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

/// A scope the scanner can be inside.
#[derive(Debug)]
enum Scope {
    Mod(String),
    /// An `impl` (false) or `trait` (true) block for the named type.
    Impl(String, bool),
    /// Index into the output items vec.
    Fn(usize),
    Block,
}

/// A scope header seen but whose `{` has not arrived yet.
#[derive(Debug)]
enum Pending {
    Mod(String),
    Impl(String, bool),
    Fn(usize),
}

/// Parse every `fn` item (with nesting and call sites) out of a
/// test-stripped token stream.
pub fn parse_items(toks: &[Tok]) -> Vec<FnItem> {
    let n = toks.len();
    let mut items: Vec<FnItem> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Paren/bracket depth since the pending header began — a `{` only
    // opens the pending scope's body at depth 0 (rules out closures in
    // default-expr position and struct exprs inside array lengths).
    let mut pending_depth = 0usize;
    let mut i = 0usize;

    while i < n {
        // Skip attributes entirely: `derive(`, `cfg(` etc. are not calls,
        // and attribute brackets must not disturb scope tracking.
        if punct_at(toks, i) == Some('#')
            && (punct_at(toks, i + 1) == Some('[')
                || (punct_at(toks, i + 1) == Some('!') && punct_at(toks, i + 2) == Some('[')))
        {
            let mut j = if punct_at(toks, i + 1) == Some('!') {
                i + 2
            } else {
                i + 1
            };
            let mut depth = 0usize;
            while j < n {
                match punct_at(toks, j) {
                    Some('[') => depth += 1,
                    Some(']') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }

        match &toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') if pending.is_some() => {
                pending_depth += 1;
                i += 1;
            }
            TokKind::Punct(')') | TokKind::Punct(']') if pending.is_some() => {
                pending_depth = pending_depth.saturating_sub(1);
                i += 1;
            }
            TokKind::Punct('{') => {
                match pending.take() {
                    Some(p) if pending_depth == 0 => {
                        let scope = match p {
                            Pending::Mod(m) => Scope::Mod(m),
                            Pending::Impl(t, is_trait) => Scope::Impl(t, is_trait),
                            Pending::Fn(idx) => {
                                if let Some(item) = items.get_mut(idx) {
                                    item.sig.1 = i;
                                    item.body.0 = i;
                                }
                                Scope::Fn(idx)
                            }
                        };
                        stack.push(scope);
                    }
                    p => {
                        // A `{` inside a pending header (const generic
                        // default, etc.): keep the header pending.
                        pending = p;
                        stack.push(Scope::Block);
                    }
                }
                i += 1;
            }
            TokKind::Punct('}') => {
                if let Some(Scope::Fn(idx)) = stack.pop() {
                    if let Some(item) = items.get_mut(idx) {
                        item.body.1 = i + 1;
                        let body = toks.get(item.body.0..item.body.1).unwrap_or_default();
                        item.typed_params.retain(|(name, _)| !rebinds(body, name));
                    }
                }
                i += 1;
            }
            TokKind::Punct(';') if pending_depth == 0 => {
                // Bodyless declaration (`fn f();` in a trait, `mod m;`).
                if let Some(Pending::Fn(idx)) = pending.take() {
                    if let Some(item) = items.get_mut(idx) {
                        item.sig.1 = i;
                    }
                }
                i += 1;
            }
            TokKind::Ident(kw) if kw == "mod" && pending.is_none() => {
                if let Some(name) = ident_at(toks, i + 1) {
                    pending = Some(Pending::Mod(name.to_owned()));
                    pending_depth = 0;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident(kw) if (kw == "impl" || kw == "trait") && pending.is_none() => {
                let (name, next) = impl_target(toks, i);
                pending = Some(Pending::Impl(name, kw == "trait"));
                pending_depth = 0;
                i = next;
            }
            TokKind::Ident(kw)
                if kw == "fn" && pending.is_none() && ident_at(toks, i + 1).is_some() =>
            {
                let idx = items.len();
                let item = scan_fn_header(toks, i, &stack);
                items.push(item);
                pending = Some(Pending::Fn(idx));
                pending_depth = 0;
                i += 2;
            }
            TokKind::Ident(name) if punct_at(toks, i + 1) == Some('(') => {
                if !NON_CALL_WORDS.contains(&name.as_str())
                    && ident_at(toks, i.wrapping_sub(1)) != Some("fn")
                {
                    if let Some(fn_idx) = innermost_fn(&stack) {
                        let method = punct_at(toks, i.wrapping_sub(1)) == Some('.');
                        let qual = if !method
                            && punct_at(toks, i.wrapping_sub(1)) == Some(':')
                            && punct_at(toks, i.wrapping_sub(2)) == Some(':')
                        {
                            ident_at(toks, i.wrapping_sub(3)).map(str::to_owned)
                        } else {
                            None
                        };
                        let before = ident_at(toks, i.wrapping_sub(2)).filter(|_| method);
                        let self_recv = before == Some("self");
                        let path_before = |k: usize| matches!(punct_at(toks, k), Some('.' | ':'));
                        let recv = before
                            .filter(|r| *r != "self")
                            .filter(|_| !path_before(i.wrapping_sub(3)))
                            .map(str::to_owned);
                        let self_field = before
                            .filter(|_| punct_at(toks, i.wrapping_sub(3)) == Some('.'))
                            .filter(|_| ident_at(toks, i.wrapping_sub(4)) == Some("self"))
                            .filter(|_| !path_before(i.wrapping_sub(5)))
                            .map(str::to_owned);
                        if let Some(item) = items.get_mut(fn_idx) {
                            item.calls.push(CallSite {
                                name: name.clone(),
                                qual,
                                method,
                                self_recv,
                                recv,
                                self_field,
                                tok: i,
                                line: toks[i].line,
                                col: toks[i].col,
                            });
                        }
                    }
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    items
}

fn innermost_fn(stack: &[Scope]) -> Option<usize> {
    stack.iter().rev().find_map(|s| match s {
        Scope::Fn(idx) => Some(*idx),
        _ => None,
    })
}

/// Scan one `fn` header starting at the `fn` keyword: name, visibility,
/// `self` parameter, and signature start. The signature end and body are
/// filled in when the scanner reaches the body `{` / terminating `;`.
fn scan_fn_header(toks: &[Tok], fn_tok: usize, stack: &[Scope]) -> FnItem {
    let name = ident_at(toks, fn_tok + 1).unwrap_or("").to_owned();
    // Plain `pub` looking back over qualifiers; `pub(crate)` has a `)`
    // between `pub` and the qualifier chain and is intentionally not
    // counted as public API surface.
    let mut k = fn_tok;
    let mut is_pub = false;
    while k > 0 {
        k -= 1;
        match ident_at(toks, k) {
            Some("unsafe" | "const" | "async" | "extern") => continue,
            Some("pub") => {
                is_pub = punct_at(toks, k + 1) != Some('(');
                break;
            }
            _ => {
                // `extern "C" fn` has a literal between; step over it.
                if matches!(toks.get(k).map(|t| &t.kind), Some(TokKind::Literal)) {
                    continue;
                }
                break;
            }
        }
    }
    // Find the parameter list: the first `(` after the name at angle
    // depth 0 (a `>` immediately preceded by `-` is the arrow of a
    // nested `Fn(..) -> ..` bound, not a closer).
    let mut j = fn_tok + 2;
    let mut angle = 0i32;
    let mut has_self = false;
    let mut typed_params: Vec<(String, String)> = Vec::new();
    let n = toks.len();
    while j < n {
        match punct_at(toks, j) {
            Some('<') => angle += 1,
            Some('>') if punct_at(toks, j.wrapping_sub(1)) != Some('-') => angle -= 1,
            Some('(') if angle <= 0 => break,
            Some('{') | Some(';') => break,
            _ => {}
        }
        j += 1;
    }
    if punct_at(toks, j) == Some('(') {
        let mut depth = 0usize;
        while j < n {
            match punct_at(toks, j) {
                Some('(') => depth += 1,
                Some(')') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if depth == 1 && ident_at(toks, j) == Some("self") {
                        has_self = true;
                    }
                    let single_colon =
                        punct_at(toks, j + 1) == Some(':') && punct_at(toks, j + 2) != Some(':');
                    if let (1, Some(name), true) = (depth, ident_at(toks, j), single_colon) {
                        if let Some(ty) = plain_type(toks, j + 2, ')') {
                            typed_params.push((name.to_owned(), ty.to_owned()));
                        }
                    }
                }
            }
            j += 1;
        }
    }
    let (impl_name, in_trait) = stack
        .iter()
        .rev()
        .find_map(|s| match s {
            Scope::Impl(t, is_trait) => Some((Some(t.clone()), *is_trait)),
            _ => None,
        })
        .unwrap_or((None, false));
    // `Self` names the impl's type; in a trait it is every implementor.
    typed_params.retain_mut(|(_, ty)| match (ty.as_str(), &impl_name) {
        ("Self", Some(t)) if !in_trait => {
            ty.clone_from(t);
            true
        }
        ("Self", _) => false,
        _ => true,
    });
    let mod_path = stack
        .iter()
        .filter_map(|s| match s {
            Scope::Mod(m) => Some(m.as_str()),
            _ => None,
        })
        .collect::<Vec<_>>()
        .join("::");
    FnItem {
        file: 0,
        name,
        impl_name,
        in_trait,
        mod_path,
        line: toks[fn_tok].line,
        col: toks[fn_tok].col,
        is_pub,
        has_self,
        typed_params,
        sig: (fn_tok, fn_tok),
        body: (0, 0),
        calls: Vec::new(),
    }
}

/// The type of a parameter or field whose type starts at `k` (just past
/// its `:`), when it is a plain `T`, `&T`, `&'a T` or `&mut T` followed by
/// `,` or `close`; for a path `a::b::T`, its last segment. Generic, tuple,
/// slice, `impl` and `dyn` types answer `None`.
fn plain_type(toks: &[Tok], mut k: usize, close: char) -> Option<&str> {
    if punct_at(toks, k) == Some('&') {
        k += 1;
        if matches!(toks.get(k).map(|t| &t.kind), Some(TokKind::Lifetime)) {
            k += 1;
        }
        if ident_at(toks, k) == Some("mut") {
            k += 1;
        }
    }
    let mut ty = ident_at(toks, k)?;
    while punct_at(toks, k + 1) == Some(':') && punct_at(toks, k + 2) == Some(':') {
        k += 3;
        ty = ident_at(toks, k)?;
    }
    let plain = !matches!(ty, "impl" | "dyn" | "mut" | "fn");
    let ends = matches!(punct_at(toks, k + 1), Some(c) if c == ',' || c == close);
    (plain && ends).then_some(ty)
}

/// One `struct` with named fields.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Fields declared `T`, `&T`, `&'a T` or `&mut T` for a `T` that is
    /// not one of the struct's generic parameters, as `(field, T)` (a path
    /// type by its last segment).
    pub typed_fields: Vec<(String, String)>,
}

/// Every `struct Name<…> { field: Type, … }` in a token stream (tuple and
/// unit structs have no named fields and are skipped).
pub fn parse_structs(toks: &[Tok]) -> Vec<StructItem> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i + 1).filter(|_| ident_at(toks, i) == Some("struct"))
        else {
            continue;
        };
        // Generic parameters: the identifiers right after `<` or `,` at
        // angle depth 1, before the body.
        let mut generics: Vec<&str> = Vec::new();
        let mut angle = 0i32;
        let mut k = i + 2;
        while k < toks.len() {
            match punct_at(toks, k) {
                Some('<') => angle += 1,
                Some('>') if punct_at(toks, k - 1) != Some('-') => angle -= 1,
                Some('{' | ';' | '(') if angle <= 0 => break,
                _ => {}
            }
            if angle == 1 && matches!(punct_at(toks, k - 1), Some('<' | ',')) {
                generics.extend(ident_at(toks, k));
            }
            k += 1;
        }
        if punct_at(toks, k) != Some('{') {
            continue;
        }
        let mut typed_fields = Vec::new();
        let mut depth = 0usize;
        while k < toks.len() {
            match punct_at(toks, k) {
                Some('{' | '(' | '[' | '<') => depth += 1,
                Some('>') if punct_at(toks, k - 1) == Some('-') => {}
                Some('}' | ')' | ']' | '>') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            let single_colon =
                punct_at(toks, k + 1) == Some(':') && punct_at(toks, k + 2) != Some(':');
            if let (1, Some(field), true) = (depth, ident_at(toks, k), single_colon) {
                if let Some(ty) = plain_type(toks, k + 2, '}').filter(|t| !generics.contains(t)) {
                    typed_fields.push((field.to_owned(), ty.to_owned()));
                }
            }
            k += 1;
        }
        out.push(StructItem {
            name: name.to_owned(),
            typed_fields,
        });
    }
    out
}

/// Whether `body` may bind `name` again: it appears in a `let` pattern (up
/// to the `=`), a `for` pattern (up to `in`), a closure's parameter list or
/// a `match` arm's pattern (back from the `=>` to the arm's start). Over-
/// approximate on purpose — a guard counts as pattern — so a parameter is
/// trusted only when nothing can shadow it.
fn rebinds(body: &[Tok], name: &str) -> bool {
    let is = |k: usize| ident_at(body, k) == Some(name);
    let n = body.len();
    for (i, tok) in body.iter().enumerate() {
        let region = match &tok.kind {
            TokKind::Ident(kw) if kw == "let" => (i + 1..n)
                .find(|&k| matches!(punct_at(body, k), Some('=' | ';')))
                .map(|end| i + 1..end),
            TokKind::Ident(kw) if kw == "for" => (i + 1..n)
                .find(|&k| ident_at(body, k) == Some("in"))
                .map(|end| i + 1..end),
            // A `|` where an operand starts opens a closure's parameters.
            TokKind::Punct('|')
                if matches!(
                    punct_at(body, i.wrapping_sub(1)),
                    Some('(' | ',' | '=' | '{' | ';' | '[')
                ) || matches!(ident_at(body, i.wrapping_sub(1)), Some("move" | "return")) =>
            {
                (i + 1..n)
                    .find(|&k| punct_at(body, k) == Some('|'))
                    .map(|end| i + 1..end)
            }
            TokKind::Punct('=') if punct_at(body, i + 1) == Some('>') => {
                Some(arm_start(body, i)..i)
            }
            _ => None,
        };
        if region.is_some_and(|mut r| r.any(is)) {
            return true;
        }
    }
    false
}

/// The first token of the `match` arm whose `=>` is at `arrow`: just past
/// the `,` or `;` before it at bracket depth 0, or the bracket that opens
/// the enclosing group. A block arm before it (`X => { … }`) counts as
/// bracketed, so the region may reach back over it: over-approximate.
fn arm_start(body: &[Tok], arrow: usize) -> usize {
    let mut depth = 0usize;
    let mut k = arrow;
    while k > 0 {
        match punct_at(body, k - 1) {
            Some(')' | ']' | '}') => depth += 1,
            Some('(' | '[' | '{') if depth == 0 => return k,
            Some('(' | '[' | '{') => depth -= 1,
            Some(',' | ';') if depth == 0 => return k,
            _ => {}
        }
        k -= 1;
    }
    0
}

/// Extract the target type name of an `impl`/`trait` header starting at
/// `i`, and the index to resume scanning from (just past the header
/// keyword — the body `{` is found by the main loop). For
/// `impl Trait for Type`, the name is `Type`; for `impl Type` or
/// `trait Name`, the first plain type ident after the keyword.
fn impl_target(toks: &[Tok], i: usize) -> (String, usize) {
    let n = toks.len();
    // Scan the header up to the `{` (or `;`), tracking the last `for` at
    // angle depth 0.
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut after_for: Option<usize> = None;
    let header_start = j;
    while j < n {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if punct_at(toks, j.wrapping_sub(1)) != Some('-') => {
                angle -= 1;
            }
            TokKind::Punct('{') | TokKind::Punct(';') => break,
            TokKind::Ident(s) if s == "for" && angle <= 0 => after_for = Some(j + 1),
            TokKind::Ident(s) if s == "where" && angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let search_from = after_for.unwrap_or(header_start);
    // First type ident at angle depth 0 from `search_from` (skipping the
    // `impl<T>` generic-parameter group), taking the LAST segment of a
    // path (`fmt::Display for RealAlg` → `RealAlg`; `cad::CadCell` →
    // `CadCell`), skipping references, lifetimes and qualifiers.
    let mut name = String::new();
    let mut k = search_from;
    let mut kangle = 0i32;
    while k < j {
        match &toks[k].kind {
            TokKind::Punct('<') => kangle += 1,
            TokKind::Punct('>') if punct_at(toks, k.wrapping_sub(1)) != Some('-') => {
                kangle -= 1;
            }
            TokKind::Ident(s) if kangle > 0 || matches!(s.as_str(), "dyn" | "mut" | "const") => {}
            TokKind::Ident(s) => {
                name = s.clone();
                // Follow `::` path segments to the last one.
                while punct_at(toks, k + 1) == Some(':')
                    && punct_at(toks, k + 2) == Some(':')
                    && ident_at(toks, k + 3).is_some()
                {
                    k += 3;
                    if let Some(seg) = ident_at(toks, k) {
                        name = seg.to_owned();
                    }
                }
                break;
            }
            _ => {}
        }
        k += 1;
    }
    (name, i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src).toks)
    }

    #[test]
    fn free_fn_and_calls() {
        let items = parse("pub fn top(x: u32) -> u32 { helper(x) + other::second(x) }");
        assert_eq!(items.len(), 1);
        let f = &items[0];
        assert_eq!(f.name, "top");
        assert!(f.is_pub);
        assert!(!f.has_self);
        let names: Vec<(&str, Option<&str>, bool)> = f
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qual.as_deref(), c.method))
            .collect();
        assert_eq!(
            names,
            vec![("helper", None, false), ("second", Some("other"), false)]
        );
    }

    #[test]
    fn impl_nesting_and_methods() {
        let items = parse(
            "impl fmt::Display for Widget {\n  fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n    self.render(f)\n  }\n}",
        );
        assert_eq!(items.len(), 1);
        let f = &items[0];
        assert_eq!(f.impl_name.as_deref(), Some("Widget"));
        assert!(f.has_self);
        assert_eq!(f.display(), "Widget::fmt");
        assert!(f.calls.iter().any(|c| c.name == "render" && c.method));
    }

    #[test]
    fn mod_nesting_and_pub_crate() {
        let items = parse("mod inner { pub(crate) fn shy() {} pub fn open() {} }");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].mod_path, "inner");
        assert!(!items[0].is_pub);
        assert!(items[1].is_pub);
    }

    #[test]
    fn macros_are_not_calls_but_their_args_are() {
        let items = parse("fn f(x: T) { write!(out, \"{}\", x.to_approx()).ok(); }");
        let calls: Vec<&str> = items[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(!calls.contains(&"write"));
        assert!(calls.contains(&"to_approx"));
    }

    #[test]
    fn attributes_are_skipped() {
        let items = parse("#[derive(Clone, Debug)]\npub struct S;\nfn g() { go(); }");
        assert_eq!(items.len(), 1);
        let calls: Vec<&str> = items[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["go"]);
    }

    #[test]
    fn generic_sig_finds_param_list() {
        let items =
            parse("fn map<T: Fn(u32) -> u32>(f: T, v: Vec<u32>) -> Vec<u32> { inner(f, v) }");
        assert_eq!(items.len(), 1);
        assert!(!items[0].has_self);
        assert_eq!(items[0].calls.len(), 1);
    }

    #[test]
    fn trait_decl_without_body() {
        let items = parse(
            "trait T { fn required(&self) -> u32; fn provided(&self) -> u32 { self.required() } }",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].body, (0, 0));
        assert!(items[1].calls.iter().any(|c| c.name == "required"));
    }

    #[test]
    fn generic_impl_name() {
        let items = parse("impl<T: Clone> Wrapper<T> { fn get(&self) -> T { self.pull() } }");
        assert_eq!(items[0].impl_name.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn typed_params_and_receivers() {
        let items = parse(
            "impl W { fn f<'a>(&self, a: &'a mut cdb_num::Int, b: Rat, o: &Self, v: Vec<Int>, \
             s: &[Int], g: impl Fn(Int)) { a.sign(); self.a.sign(); b.x.sign(); } \
             fn h(a: Int, b: Int, c: Int, d: Int) { let x = a; for b in it {} \
             match m { Some(c) => (), _ => () } d.sign(); } }",
        );
        let params = |i: usize| -> Vec<(&str, &str)> {
            items[i]
                .typed_params
                .iter()
                .map(|(p, t)| (p.as_str(), t.as_str()))
                .collect()
        };
        assert_eq!(params(0), vec![("a", "Int"), ("b", "Rat"), ("o", "W")]);
        let recvs: Vec<Option<&str>> = items[0].calls.iter().map(|c| c.recv.as_deref()).collect();
        assert_eq!(recvs, vec![Some("a"), None, None]);
        // `a` is only read by a `let`; `b` and `c` are rebound.
        assert_eq!(params(1), vec![("a", "Int"), ("d", "Int")]);
    }

    #[test]
    fn struct_fields_and_self_field_receivers() {
        let toks = lex(
            "pub struct S<'a, T: Clone, const N: usize> { pub a: cdb_num::Int, \
             pub(crate) r: &'a mut Rat, v: Vec<Int>, t: T, f: fn(Int) -> Int, z: Zk<N> } \
             struct Unit; struct Pair(Int, Int);",
        )
        .toks;
        let structs = parse_structs(&toks);
        assert_eq!(structs.len(), 1);
        assert_eq!(structs[0].name, "S");
        let fields: Vec<(&str, &str)> = structs[0]
            .typed_fields
            .iter()
            .map(|(f, t)| (f.as_str(), t.as_str()))
            .collect();
        assert_eq!(fields, vec![("a", "Int"), ("r", "Rat")]);
        let items = parse(
            "impl S { fn f(&self) { self.a.sign(); self.a.b.sign(); x.a.sign(); self.sign(); } }",
        );
        let fields: Vec<Option<&str>> = items[0]
            .calls
            .iter()
            .map(|c| c.self_field.as_deref())
            .collect();
        assert_eq!(fields, vec![Some("a"), None, None, None]);
    }

    #[test]
    fn keywords_are_not_calls() {
        let items = parse("fn f(x: u32) -> u32 { if (x > 1) { x } else { loop { break x; } } }");
        assert!(items[0].calls.is_empty());
    }
}
