//! The workspace call graph.
//!
//! Nodes are the `fn` items parsed by [`crate::items`], in deterministic
//! order (files sorted by path, functions by source position). Edges are
//! *resolved* call sites: a call resolves to a set of candidate callees,
//! never a guess — when the name is a common std method, or the qualifier
//! matches nothing in the workspace, the call simply has no candidates.
//! The interprocedural passes choose per-pass how to combine candidate
//! sets (union for must-not-happen properties like panic reachability,
//! unanimity for taint, where a single exact-arithmetic candidate should
//! clear the call).

use crate::items::{parse_items, parse_structs, CallSite, FnItem};
use crate::lexer::Tok;
use std::collections::BTreeMap;

/// Method and function names owned by std/core in practice: resolving
/// these by bare name would wire most of the workspace to any type that
/// happens to share the name. Workspace functions that shadow one of these
/// are reachable only through a qualified path.
const STD_NAMES: &[&str] = &[
    "clone",
    "to_owned",
    "to_string",
    "into",
    "from",
    "try_into",
    "try_from",
    "default",
    "new",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "fold",
    "for_each",
    "collect",
    "iter",
    "iter_mut",
    "into_iter",
    "chars",
    "bytes",
    "lines",
    "split",
    "split_at",
    "splitn",
    "trim",
    "starts_with",
    "ends_with",
    "contains",
    "contains_key",
    "push",
    "push_str",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "len",
    "is_empty",
    "first",
    "last",
    "next",
    "peek",
    "nth",
    "take",
    "skip",
    "chain",
    "zip",
    "enumerate",
    "rev",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "dedup",
    "retain",
    "extend",
    "append",
    "clear",
    "drain",
    "truncate",
    "resize",
    "join",
    "concat",
    "as_str",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_bytes",
    "as_deref",
    "borrow",
    "borrow_mut",
    "deref",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "max",
    "min",
    "max_by_key",
    "min_by_key",
    "max_by",
    "min_by",
    "clamp",
    "abs",
    "pow",
    "powi",
    "hash",
    "fmt",
    "lock",
    "wait",
    "notify_all",
    "notify_one",
    "spawn",
    "drop",
    "swap",
    "replace",
    "wrapping_sub",
    "wrapping_add",
    "saturating_sub",
    "saturating_add",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "div_ceil",
    "fetch_add",
    "fetch_sub",
    "load",
    "store",
    "compare_exchange",
    "to_vec",
    "to_str",
    "to_string_lossy",
    "display",
    "path",
    "file_name",
    "extension",
    "strip_prefix",
    "strip_suffix",
    "parse",
    "trim_start",
    "trim_end",
    "trim_start_matches",
    "trim_end_matches",
    "find",
    "rfind",
    "position",
    "any",
    "all",
    "count",
    "sum",
    "product",
    "step_by",
    "windows",
    "chunks",
    "copied",
    "cloned",
    "unzip",
    "partition",
    "binary_search",
    "binary_search_by",
    "keys",
    "values",
    "values_mut",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "map_or",
    "map_or_else",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "not",
    "bitand",
    "bitor",
    "bitxor",
    "shl",
    "shr",
    "index",
    "get_or_insert_with",
    "then",
    "then_some",
    "min_element",
    "max_element",
    "rotate_left",
    "rotate_right",
    "leading_zeros",
    "trailing_zeros",
    "signum",
    "is_char_boundary",
    "char_indices",
    "floor",
    "ceil",
    "round",
    "exp",
    "ln",
    "log2",
    "sin",
    "cos",
    "tan",
    "atan2",
    "hypot",
    "to_bits",
    "from_bits",
    "set",
    "get_or_init",
    "take_while",
    "skip_while",
    "by_ref",
    "last_mut",
    "first_mut",
    "iter_rev",
    "front",
    "back",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "range",
    "split_off",
    "insert_str",
    "char_at",
    "is_ascii_digit",
    "is_alphanumeric",
    "is_alphabetic",
    "is_whitespace",
];

/// Per-file metadata needed for resolution.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// `crates/<dir>` member directory name, if under `crates/`.
    pub crate_dir: Option<String>,
    /// The crate's Rust identifier (`cdb_qe`, `constraintdb`, …).
    pub crate_ident: Option<String>,
    /// File stem (`cache` for `crates/qe/src/cache.rs`) — the module name
    /// a sibling refers to the file by.
    pub stem: String,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All functions, sorted by (file index, line, col) — ids are stable
    /// across runs because files arrive sorted by path.
    pub fns: Vec<FnItem>,
    /// File table; `FnItem::file` indexes into it.
    pub files: Vec<FileInfo>,
    /// For each function, for each of its call sites (same index as
    /// `FnItem::calls`), the candidate callee ids (possibly empty).
    pub resolved: Vec<Vec<Vec<usize>>>,
    /// `(crate dir, struct name)` → its typed fields; a name two structs
    /// of one crate share is left out.
    pub struct_fields: BTreeMap<(String, String), TypedFields>,
}

/// A struct's fields declared `T`, `&T` or `&mut T`, as `(field, T)`.
pub type TypedFields = Vec<(String, String)>;

impl Graph {
    /// Total number of resolved call edges (candidate pairs).
    pub fn edge_count(&self) -> usize {
        self.resolved
            .iter()
            .flat_map(|calls| calls.iter())
            .map(Vec::len)
            .sum()
    }

    /// The file info of function `f`.
    pub fn file_of(&self, f: usize) -> Option<&FileInfo> {
        self.fns.get(f).and_then(|item| self.files.get(item.file))
    }
}

/// The crate identifier for a workspace member directory name.
fn crate_ident(dir: &str) -> String {
    // `crates/core` is the `constraintdb` facade crate; every other member
    // is published as `cdb-<dir>` and referred to as `cdb_<dir>` in code.
    if dir == "core" {
        "constraintdb".to_owned()
    } else {
        format!("cdb_{}", dir.replace('-', "_"))
    }
}

fn file_info(rel: &str) -> FileInfo {
    let crate_dir = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(str::to_owned);
    let stem = rel
        .rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
        .to_owned();
    FileInfo {
        rel: rel.to_owned(),
        crate_ident: crate_dir.as_deref().map(crate_ident),
        crate_dir,
        stem,
    }
}

/// Build the call graph over already-lexed, test-stripped files.
/// `files` must be sorted by path (the lint driver guarantees it).
pub fn build(files: &[(String, Vec<Tok>)]) -> Graph {
    let mut g = Graph::default();
    let mut structs: BTreeMap<(String, String), Option<TypedFields>> = BTreeMap::new();
    for (idx, (rel, toks)) in files.iter().enumerate() {
        let info = file_info(rel);
        if let Some(dir) = &info.crate_dir {
            for st in parse_structs(toks) {
                structs
                    .entry((dir.clone(), st.name))
                    .and_modify(|seen| *seen = None)
                    .or_insert(Some(st.typed_fields));
            }
        }
        g.files.push(info);
        let mut items = parse_items(toks);
        for item in &mut items {
            item.file = idx;
        }
        g.fns.extend(items);
    }
    g.struct_fields = structs
        .into_iter()
        .filter_map(|(key, fields)| Some((key, fields?)))
        .collect();
    // Deterministic ids: files arrive sorted, items are in source order
    // within a file, so the flattened order is already (file, line, col).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, f) in g.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(id);
    }
    let mut resolved = Vec::with_capacity(g.fns.len());
    for f in &g.fns {
        let calls: Vec<Vec<usize>> = f
            .calls
            .iter()
            .map(|c| resolve(&g, &by_name, f, c))
            .collect();
        resolved.push(calls);
    }
    g.resolved = resolved;
    g
}

/// Resolve one call site to candidate function ids.
fn resolve(
    g: &Graph,
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: &FnItem,
    call: &CallSite,
) -> Vec<usize> {
    let name = call.name.as_str();
    if STD_NAMES.contains(&name) {
        return Vec::new();
    }
    let Some(cands) = by_name.get(name) else {
        return Vec::new();
    };
    let caller_file = g.files.get(caller.file);
    let caller_crate = caller_file.and_then(|fi| fi.crate_dir.as_deref());
    if call.method {
        // `recv.name(...)`: any workspace method (has a `self` receiver,
        // lives in an impl/trait) with that name. Union over impls — the
        // passes decide how to combine.
        let methods = cands
            .iter()
            .copied()
            .filter(|&id| g.fns[id].has_self && g.fns[id].impl_name.is_some());
        // `self.name(...)` inside an impl calls the caller's own type's
        // method when that type (in the caller's crate) defines one; a
        // trait's default method dispatches to implementors, and a name
        // the type does not define may come from a trait or `Deref`, so
        // those keep the union.
        if call.self_recv && !caller.in_trait {
            let own: Vec<usize> = methods
                .clone()
                .filter(|&id| {
                    let f = &g.fns[id];
                    !f.in_trait
                        && f.impl_name == caller.impl_name
                        && caller_crate.is_some()
                        && g.file_of(id).and_then(|fi| fi.crate_dir.as_deref()) == caller_crate
                })
                .collect();
            if !own.is_empty() {
                return own;
            }
        }
        // `param.name(...)` on a parameter declared `T`, `&T` or `&mut T`
        // (and never rebound), and `self.f.name(...)` on a field the
        // caller's own struct declares `f: T` or `f: &T`, call `T`'s
        // method when `T` defines one; a name `T` does not define may come
        // from a trait or `Deref`, so that keeps the union.
        let param_ty = call.recv.as_deref().and_then(|r| {
            caller
                .typed_params
                .iter()
                .find_map(|(p, ty)| (p == r).then_some(ty.as_str()))
        });
        let field_ty = || {
            let field = call.self_field.as_deref().filter(|_| !caller.in_trait)?;
            let key = (caller_crate?.to_owned(), caller.impl_name.clone()?);
            g.struct_fields
                .get(&key)?
                .iter()
                .find_map(|(f, ty)| (f == field).then_some(ty.as_str()))
        };
        let declared = param_ty.or_else(field_ty);
        if let Some(ty) = declared {
            let typed: Vec<usize> = methods
                .clone()
                .filter(|&id| !g.fns[id].in_trait && g.fns[id].impl_name.as_deref() == Some(ty))
                .collect();
            if !typed.is_empty() {
                return typed;
            }
        }
        return methods.collect();
    }
    if let Some(q) = call.qual.as_deref() {
        if q == "Self" {
            // `Self::name(...)`: same impl type in the same file.
            return cands
                .iter()
                .copied()
                .filter(|&id| {
                    g.fns[id].file == caller.file && g.fns[id].impl_name == caller.impl_name
                })
                .collect();
        }
        if q == "crate" || q == "super" || q == "self" {
            // `crate::name(...)` etc.: same crate.
            return cands
                .iter()
                .copied()
                .filter(|&id| {
                    g.file_of(id).and_then(|fi| fi.crate_dir.as_deref()) == caller_crate
                        && caller_crate.is_some()
                })
                .collect();
        }
        // `q::name(...)`: q must match the candidate's impl type, its
        // file stem (sibling-module call), its innermost module name, or
        // its crate identifier. No fallback: an unmatched qualifier means
        // an unresolved call, not "all functions named `name`".
        return cands
            .iter()
            .copied()
            .filter(|&id| {
                let f = &g.fns[id];
                let fi = g.file_of(id);
                f.impl_name.as_deref() == Some(q)
                    || fi.is_some_and(|fi| fi.stem == q)
                    || f.mod_path.rsplit("::").next() == Some(q).filter(|_| !f.mod_path.is_empty())
                    || fi.is_some_and(|fi| fi.crate_ident.as_deref() == Some(q))
            })
            .collect();
    }
    // Bare call: free functions only (an associated fn needs a qualified
    // path). Prefer same file, then same crate, then a globally unique
    // free fn; ambiguity resolves to nothing.
    let free: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| g.fns[id].impl_name.is_none())
        .collect();
    let same_file: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&id| g.fns[id].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&id| {
            caller_crate.is_some()
                && g.file_of(id).and_then(|fi| fi.crate_dir.as_deref()) == caller_crate
        })
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    if free.len() == 1 {
        return free;
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let lexed: Vec<(String, Vec<Tok>)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_owned(), lex(src).toks))
            .collect();
        build(&lexed)
    }

    fn callee_names(g: &Graph, caller: &str) -> Vec<String> {
        let id = g.fns.iter().position(|f| f.name == caller).unwrap();
        g.resolved[id]
            .iter()
            .flatten()
            .map(|&c| g.fns[c].display())
            .collect()
    }

    #[test]
    fn cross_file_qualified_resolution() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper::go(); std::mem::forget(1); }",
            ),
            (
                "crates/a/src/helper.rs",
                "pub fn go() { local(); } fn local() {}",
            ),
        ]);
        assert_eq!(callee_names(&g, "entry"), vec!["go"]);
        assert_eq!(callee_names(&g, "go"), vec!["local"]);
    }

    #[test]
    fn std_methods_do_not_resolve() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl Thing { pub fn clone(&self) {} } fn f(t: Thing) { t.clone(); }",
        )]);
        assert!(callee_names(&g, "f").is_empty());
    }

    #[test]
    fn method_union_over_impls() {
        // A receiver whose type the resolver cannot name (`Box<A>`) calls
        // every workspace method of that name.
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl A { fn probe(&self) {} } impl B { fn probe(&self) {} } fn f(x: Box<A>) { x.probe(); }",
        )]);
        assert_eq!(callee_names(&g, "f"), vec!["A::probe", "B::probe"]);
    }

    #[test]
    fn self_method_resolves_to_own_impl() {
        let src = "impl A { fn probe(&self) {} fn run(&self) { self.probe(); self.b.probe(); self.gone(); } } \
                   impl B { fn probe(&self) {} fn gone(&self) {} } \
                   trait T { fn probe(&self); fn dflt(&self) { self.probe(); } }";
        let g = graph_of(&[("crates/a/src/lib.rs", src)]);
        let id = g.fns.iter().position(|f| f.name == "run").unwrap();
        let per_call: Vec<Vec<String>> = g.resolved[id]
            .iter()
            .map(|c| c.iter().map(|&f| g.fns[f].display()).collect())
            .collect();
        assert_eq!(
            per_call,
            vec![
                // `self.probe()`: the caller's own impl defines `probe`.
                vec!["A::probe".to_owned()],
                // `self.b.probe()`: another receiver keeps the union.
                vec!["A::probe".into(), "B::probe".into(), "T::probe".into()],
                // `self.gone()`: `A` has no `gone`, so the union again.
                vec!["B::gone".into()],
            ]
        );
        // A trait's default method dispatches to every implementor.
        assert_eq!(
            callee_names(&g, "dflt"),
            vec!["A::probe", "B::probe", "T::probe"]
        );
    }

    #[test]
    fn typed_param_method_resolves_to_its_type() {
        let src = "impl A { fn probe(&self) {} fn run(&self, other: &Self) { other.probe(); } } \
                   impl B { fn probe(&self) {} } \
                   fn f(a: &mut A, b: B, x: X) { a.probe(); b.probe(); x.probe(); } \
                   fn g(a: A, bs: &[B]) { bs.iter().for_each(|a| a.probe()); }";
        let g = graph_of(&[("crates/a/src/lib.rs", src)]);
        // `other: &Self` in `impl A` is an `A`.
        assert_eq!(callee_names(&g, "run"), vec!["A::probe"]);
        // `X` defines no `probe`: that call keeps the union.
        assert_eq!(
            callee_names(&g, "f"),
            vec!["A::probe", "B::probe", "A::probe", "B::probe"]
        );
        // The closure parameter shadows `a: A`: the union again.
        assert_eq!(callee_names(&g, "g"), vec!["A::probe", "B::probe"]);
    }

    #[test]
    fn field_method_resolves_to_its_type() {
        let src = "struct S<T> { a: A, r: &'static A, b: Box<A>, x: X, t: T } \
                   impl A { fn probe(&self) {} } impl B { fn probe(&self) {} } \
                   impl<T> S<T> { fn run(&self) { self.a.probe(); self.r.probe(); } \
                   fn rest(&self) { self.b.probe(); self.x.probe(); self.t.probe(); self.a.b.probe(); } }";
        let g = graph_of(&[
            ("crates/a/src/lib.rs", src),
            // Fields are looked up in the caller's crate.
            (
                "crates/b/src/lib.rs",
                "struct S { a: B } impl B { fn other(&self) { } } impl S { fn run2(&self) { self.a.probe(); } }",
            ),
        ]);
        // `a: A` and `r: &A` are `A`s.
        assert_eq!(callee_names(&g, "run"), vec!["A::probe", "A::probe"]);
        // `Box<A>`, a type without `probe`, a generic parameter and a
        // deeper field path keep the union.
        assert_eq!(callee_names(&g, "rest").len(), 8);
        // In crate `b`, `self.a` is the field of `b`'s own `S`: a `B`.
        assert_eq!(callee_names(&g, "run2"), vec!["B::probe"]);
    }

    #[test]
    fn bare_call_prefers_same_file_then_same_crate() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn shared() {} pub fn f() { shared(); }",
            ),
            ("crates/b/src/lib.rs", "pub fn shared() {}"),
        ]);
        assert_eq!(callee_names(&g, "f"), vec!["shared"]);
        let id = g.fns.iter().position(|f| f.name == "f").unwrap();
        let cand = g.resolved[id][0][0];
        assert_eq!(g.fns[cand].file, g.fns[id].file);
    }

    #[test]
    fn unmatched_qualifier_resolves_to_nothing() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn f() { elsewhere::go(); }"),
            ("crates/b/src/other.rs", "pub fn go() {}"),
        ]);
        assert!(callee_names(&g, "f").is_empty());
    }

    #[test]
    fn crate_ident_resolution() {
        let g = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn f() { cdb_b::go(); }"),
            ("crates/b/src/lib.rs", "pub fn go() {}"),
        ]);
        assert_eq!(callee_names(&g, "f"), vec!["go"]);
    }
}
