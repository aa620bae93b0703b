//! The crate-wide **item graph**: every parsed file of every workspace
//! crate, flattened into tables the semantic lints (L007–L011) query.
//!
//! The graph records, per function: its crate, impl self-type, signature,
//! the lock acquisitions in its body (with how long each guard is held),
//! and its call sites. Across functions it indexes free functions by
//! `(crate, name)`, methods by self-type, error enums (`*Error`), crate
//! `Result` aliases, `From<X> for Y` impls, and each file's `use` imports.
//!
//! Name resolution is deliberately conservative: a call is resolved only
//! when the target is unambiguous — `self.m(…)` against the enclosing impl,
//! a free `f(…)` defined or imported in scope, a `crate_ident::f(…)` path,
//! or a method name defined on exactly one type in the whole graph.
//! Ambiguity means "unknown", and unknown never produces a finding.

use crate::config::Config;
use crate::items::{parse_items, receiver_chain, stmt_end, stmt_start, FnSig, Item, ItemKind};
use crate::lexer::{lex, Tok, TokKind};
use crate::lints::FileContext;
use std::collections::{BTreeMap, BTreeSet};

/// One lexed + item-parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Scoping context (repo-relative path, crate name).
    pub ctx: FileContext,
    /// The file's tokens.
    pub toks: Vec<Tok>,
    /// The file's item tree.
    pub items: Vec<Item>,
}

impl ParsedFile {
    /// Lex and item-parse one file.
    pub fn parse(ctx: FileContext, src: &str) -> ParsedFile {
        let toks = lex(src);
        let items = parse_items(&toks);
        ParsedFile { ctx, toks, items }
    }
}

/// A lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Lock class, e.g. `core::PlanCache.shard_of` — see
    /// `lock_class` in this module for the naming rule.
    pub class: String,
    /// Token index of the acquiring call (`lock`/`read`/`write`/wrapper).
    pub tok: usize,
    /// One past the last token where the guard is still held.
    pub hold_end: usize,
    /// Guard binding name when `let`-bound (`None` for temporaries).
    pub guard: Option<String>,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called name (`answer`, `eval_cq`, …).
    pub name: String,
    /// Token index of the name.
    pub tok: usize,
    /// `.name(…)` (method) vs `name(…)` (free).
    pub method: bool,
    /// For methods: the receiver chain bottoms out at `self`.
    pub recv_self: bool,
    /// For free calls: the path segment before `::`, if any.
    pub qualifier: Option<String>,
}

/// One function (free or method) in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`ItemGraph::files`].
    pub file: usize,
    /// Crate directory name (`core`, `storage`, …).
    pub krate: String,
    /// Enclosing impl's self type for methods.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// `pub` without restriction.
    pub is_pub: bool,
    /// Inside test-only code.
    pub cfg_test: bool,
    /// Behind a positive `modelcheck_mutation` cfg (seeded bug twin).
    pub cfg_mutation: bool,
    /// Parsed signature (token indexes into the file).
    pub sig: FnSig,
    /// 1-based position of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Lock acquisitions in the body.
    pub locks: Vec<LockAcq>,
    /// Call sites in the body.
    pub calls: Vec<Call>,
    /// Error type of a `Result` return, when determinable.
    pub err_ty: Option<String>,
}

/// The assembled graph.
#[derive(Debug)]
pub struct ItemGraph {
    /// Every parsed file, in input order.
    pub files: Vec<ParsedFile>,
    /// Every function, flattened.
    pub fns: Vec<FnNode>,
    /// `(crate, name)` → free-fn indexes.
    pub free_fns: BTreeMap<(String, String), Vec<usize>>,
    /// Self type → method name → fn indexes.
    pub methods: BTreeMap<String, BTreeMap<String, Vec<usize>>>,
    /// Method name → fn indexes across all types.
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Crate → enums whose name ends in `Error`.
    pub error_enums: BTreeMap<String, BTreeSet<String>>,
    /// Crate → error type of its `type Result<T> = …` alias.
    pub result_alias_err: BTreeMap<String, String>,
    /// `(To, From)` pairs from `impl From<From> for To`.
    pub from_impls: BTreeSet<(String, String)>,
    /// Per-file: locally-bound name → full import path.
    pub imports: Vec<BTreeMap<String, Vec<String>>>,
    /// Per-file: glob-import path prefixes (`use a::b::*`).
    pub glob_imports: Vec<Vec<Vec<String>>>,
    /// Per-fn transitive lock classes (fixpoint over the call graph).
    locks_closure: Vec<BTreeSet<String>>,
}

/// Method names that can never be interesting call-graph edges; skipping
/// them keeps the by-name fallback from resolving `.len()` on a shard map
/// to some unrelated type's `len`.
const UNTRACKED_METHODS: &[&str] = &[
    "clone",
    "len",
    "is_empty",
    "iter",
    "into_iter",
    "next",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "contains",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "to_string",
    "to_owned",
    "into",
    "as_ref",
    "as_str",
    "collect",
    "extend",
    "clear",
];

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "as", "in", "move", "ref", "else",
    "mut", "pub", "use", "mod", "impl", "struct", "enum", "trait", "type", "const", "static",
    "where", "unsafe", "async", "await", "dyn", "fn", "Some", "Ok", "Err", "None", "box",
];

impl ItemGraph {
    /// Build the graph from parsed files.
    pub fn build(files: Vec<ParsedFile>, cfg: &Config) -> ItemGraph {
        let mut g = ItemGraph {
            files,
            fns: Vec::new(),
            free_fns: BTreeMap::new(),
            methods: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            error_enums: BTreeMap::new(),
            result_alias_err: BTreeMap::new(),
            from_impls: BTreeSet::new(),
            imports: Vec::new(),
            glob_imports: Vec::new(),
            locks_closure: Vec::new(),
        };
        for fi in 0..g.files.len() {
            let mut imports = BTreeMap::new();
            let mut globs = Vec::new();
            let items = std::mem::take(&mut g.files[fi].items);
            g.walk_items(fi, &items, None, &mut imports, &mut globs, cfg);
            g.files[fi].items = items;
            g.imports.push(imports);
            g.glob_imports.push(globs);
        }
        g.compute_locks_closure();
        g
    }

    fn walk_items(
        &mut self,
        fi: usize,
        items: &[Item],
        self_ty: Option<&str>,
        imports: &mut BTreeMap<String, Vec<String>>,
        globs: &mut Vec<Vec<String>>,
        cfg: &Config,
    ) {
        let krate = self.files[fi].ctx.crate_name.clone();
        for item in items {
            match &item.kind {
                ItemKind::Use { targets } => {
                    for t in targets {
                        if t.glob {
                            globs.push(t.path.clone());
                        } else if !t.alias.is_empty() {
                            imports.insert(t.alias.clone(), t.path.clone());
                        }
                    }
                }
                ItemKind::Module { inline: true } => {
                    self.walk_items(fi, &item.children, self_ty, imports, globs, cfg);
                }
                ItemKind::Enum if item.name.ends_with("Error") => {
                    self.error_enums
                        .entry(krate.clone())
                        .or_default()
                        .insert(item.name.clone());
                }
                ItemKind::TypeAlias { target } if item.name == "Result" => {
                    let toks = &self.files[fi].toks;
                    let err = toks[target.0.min(toks.len())..target.1.min(toks.len())]
                        .iter()
                        .rfind(|t| t.kind == TokKind::Ident && t.text.ends_with("Error"))
                        .map(|t| t.text.clone());
                    if let Some(err) = err {
                        self.result_alias_err.entry(krate.clone()).or_insert(err);
                    }
                }
                ItemKind::Impl {
                    self_ty: ty,
                    trait_ty,
                    trait_args,
                } => {
                    if trait_ty.as_deref() == Some("From") {
                        if let Some(from) = trait_args.first() {
                            self.from_impls.insert((ty.clone(), from.clone()));
                        }
                    }
                    self.walk_items(fi, &item.children, Some(ty), imports, globs, cfg);
                }
                ItemKind::Trait => {
                    self.walk_items(fi, &item.children, Some(&item.name), imports, globs, cfg);
                }
                ItemKind::Fn(sig) => {
                    let idx = self.fns.len();
                    let node = self.fn_node(fi, item, sig.clone(), self_ty, cfg);
                    if let Some(ty) = &node.self_ty {
                        self.methods
                            .entry(ty.clone())
                            .or_default()
                            .entry(node.name.clone())
                            .or_default()
                            .push(idx);
                        self.methods_by_name
                            .entry(node.name.clone())
                            .or_default()
                            .push(idx);
                    } else {
                        self.free_fns
                            .entry((node.krate.clone(), node.name.clone()))
                            .or_default()
                            .push(idx);
                    }
                    self.fns.push(node);
                }
                _ => {}
            }
        }
    }

    fn fn_node(
        &self,
        fi: usize,
        item: &Item,
        sig: FnSig,
        self_ty: Option<&str>,
        cfg: &Config,
    ) -> FnNode {
        let file = &self.files[fi];
        let krate = file.ctx.crate_name.clone();
        let (locks, calls) = match sig.body {
            Some((open, close)) => scan_body(&file.toks, open, close, self_ty, &krate, cfg),
            None => (Vec::new(), Vec::new()),
        };
        let err_ty = result_error_type(&file.toks, sig.ret, &krate, &self.result_alias_err);
        FnNode {
            file: fi,
            krate,
            self_ty: self_ty.map(String::from),
            name: item.name.clone(),
            is_pub: item.is_pub,
            cfg_test: item.cfg_test,
            cfg_mutation: item.cfg_mutation,
            sig,
            line: item.line,
            col: item.col,
            locks,
            calls,
            err_ty,
        }
    }

    /// Transitive lock classes per fn: a fixpoint of
    /// `locks*(f) = direct(f) ∪ ⋃ locks*(resolved callees of f)`.
    fn compute_locks_closure(&mut self) {
        let n = self.fns.len();
        let mut closure: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|f| f.locks.iter().map(|l| l.class.clone()).collect())
            .collect();
        // Resolve call edges once.
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, f) in self.fns.iter().enumerate() {
            for c in &f.calls {
                if let Some(t) = self.resolve_call(f, c) {
                    if t != i {
                        edges[i].push(t);
                    }
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                let mut add: Vec<String> = Vec::new();
                for &t in &edges[i] {
                    for cls in &closure[t] {
                        if !closure[i].contains(cls) {
                            add.push(cls.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    closure[i].extend(add);
                    changed = true;
                }
            }
        }
        self.locks_closure = closure;
    }

    /// All lock classes fn `idx` may acquire, transitively.
    pub fn transitive_locks(&self, idx: usize) -> &BTreeSet<String> {
        &self.locks_closure[idx]
    }

    /// Resolve a call to a unique fn in the graph, or `None`.
    pub fn resolve_call(&self, caller: &FnNode, call: &Call) -> Option<usize> {
        if call.method {
            if UNTRACKED_METHODS.contains(&call.name.as_str()) {
                return None;
            }
            if call.recv_self {
                if let Some(ty) = &caller.self_ty {
                    if let Some(v) = self.methods.get(ty).and_then(|m| m.get(&call.name)) {
                        return unique(v);
                    }
                }
            }
            // By-name fallback: only when the name is defined on exactly
            // one type in the entire graph.
            return unique(self.methods_by_name.get(&call.name)?);
        }
        if let Some(q) = &call.qualifier {
            if let Some(krate) = crate_of_path_ident(q) {
                if let Some(v) = self.free_fns.get(&(krate, call.name.clone())) {
                    return unique(v);
                }
            }
            if q == "crate" || q == "self" || q == "super" {
                if let Some(v) = self
                    .free_fns
                    .get(&(caller.krate.clone(), call.name.clone()))
                {
                    return unique(v);
                }
            }
            return None;
        }
        // Unqualified: same crate first, then a single-crate import.
        if let Some(v) = self
            .free_fns
            .get(&(caller.krate.clone(), call.name.clone()))
        {
            return unique(v);
        }
        let imp = self.imports.get(caller.file)?;
        let path = imp.get(&call.name)?;
        let krate = crate_of_path_ident(path.first()?)?;
        unique(self.free_fns.get(&(krate, call.name.clone()))?)
    }

    /// Does `ty` (an impl self type anywhere in the graph) define a method
    /// called `name`? Used by L001 to recognise domain `expect`-alikes.
    pub fn type_has_method(&self, ty: &str, name: &str) -> bool {
        self.methods
            .get(ty)
            .map(|m| m.contains_key(name))
            .unwrap_or(false)
    }

    /// The impl self type enclosing token `tok` of file `fi`, if any.
    pub fn impl_ty_at(&self, fi: usize, tok: usize) -> Option<String> {
        fn find(items: &[Item], tok: usize, current: Option<&str>) -> Option<String> {
            for item in items {
                if tok < item.start || tok >= item.end {
                    continue;
                }
                let here = match &item.kind {
                    ItemKind::Impl { self_ty, .. } => Some(self_ty.as_str()),
                    _ => current,
                };
                return find(&item.children, tok, here).or_else(|| here.map(String::from));
            }
            current.map(String::from)
        }
        find(&self.files[fi].items, tok, None)
    }
}

fn unique(v: &[usize]) -> Option<usize> {
    if v.len() == 1 {
        Some(v[0])
    } else {
        None
    }
}

/// Is `name` on the untracked-method list (never a call-graph edge)?
/// Exposed for the flow lints, whose reachability BFS uses the same
/// filter but fans ambiguous calls out instead of dropping them.
pub(crate) fn untracked_method(name: &str) -> bool {
    UNTRACKED_METHODS.contains(&name)
}

/// Workspace crate directory for a path ident (`rdfref_storage` →
/// `storage`, `rdfref_model` → `rdf`).
pub(crate) fn crate_of_path_ident(ident: &str) -> Option<String> {
    match ident {
        "rdfref_model" => Some("rdf".to_string()),
        "rdfref" => Some("rdfref".to_string()),
        _ => ident.strip_prefix("rdfref_").map(String::from),
    }
}

/// Error type of a `Result<…>` return, when determinable: the explicit
/// second type argument, or the crate's `Result` alias default. Single-
/// letter names are treated as generics and yield `None`.
fn result_error_type(
    toks: &[Tok],
    ret: (usize, usize),
    krate: &str,
    alias_err: &BTreeMap<String, String>,
) -> Option<String> {
    let range = &toks[ret.0.min(toks.len())..ret.1.min(toks.len())];
    let pos = range.iter().position(|t| t.is_ident("Result"))?;
    // Explicit args?
    if range.get(pos + 1).map(|t| t.is_punct('<')).unwrap_or(false) {
        let mut depth = 0i32;
        let mut top_commas = Vec::new();
        let mut end = range.len();
        for (i, t) in range.iter().enumerate().skip(pos + 1) {
            match t.kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                TokKind::Punct(',') if depth == 1 => top_commas.push(i),
                _ => {}
            }
        }
        if let Some(&comma) = top_commas.first() {
            let err = range[comma + 1..end]
                .iter()
                .rfind(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())?;
            if err.chars().count() <= 1 {
                return None; // a generic parameter, not a concrete enum
            }
            return Some(err);
        }
    }
    alias_err.get(krate).cloned()
}

/// Scan one fn body for lock acquisitions and call sites.
fn scan_body(
    toks: &[Tok],
    open: usize,
    close: usize,
    self_ty: Option<&str>,
    krate: &str,
    cfg: &Config,
) -> (Vec<LockAcq>, Vec<Call>) {
    let mut locks = Vec::new();
    let mut calls = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let next_paren = toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
        if !next_paren {
            i += 1;
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let is_lock_method = prev_dot && matches!(t.text.as_str(), "lock" | "read" | "write");
        let is_wrapper = !prev_dot && cfg.lock_wrappers.contains(&t.text);
        if is_lock_method || is_wrapper {
            let class = if is_lock_method {
                lock_class(&receiver_chain(toks, i - 1), self_ty, krate)
            } else {
                // Wrapper: class from the first argument's chain,
                // `lock_or_recover(&self.counters)` → …counters.
                let arg_close = crate::items::matching(toks, i + 1, '(', ')').unwrap_or(close);
                let chain: Vec<String> = toks[i + 2..arg_close]
                    .iter()
                    .take_while(|t| t.kind == TokKind::Ident || t.is_punct('&') || t.is_punct('.'))
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect();
                lock_class(&chain, self_ty, krate)
            };
            let (hold_end, guard) = guard_extent(toks, i, close);
            locks.push(LockAcq {
                class,
                tok: i,
                hold_end,
                guard,
            });
            i += 1;
            continue;
        }
        if prev_dot {
            let chain = receiver_chain(toks, i - 1);
            calls.push(Call {
                name: t.text.clone(),
                tok: i,
                method: true,
                recv_self: chain.first().map(|s| s == "self").unwrap_or(false),
                qualifier: None,
            });
            i += 1;
            continue;
        }
        if KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // Free or path-qualified call.
        let qualifier = if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            toks.get(i.wrapping_sub(3))
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.clone())
        } else {
            None
        };
        calls.push(Call {
            name: t.text.clone(),
            tok: i,
            method: false,
            recv_self: false,
            qualifier,
        });
        i += 1;
    }
    (locks, calls)
}

/// Name the lock class for an acquisition whose receiver chain is `chain`.
///
/// * `self.<…>.field_or_fn` → `crate::SelfTy.last` — two impls' fields with
///   the same name on *different* types stay distinct classes.
/// * anything else → `crate::last` (locals and free receivers collapse by
///   trailing name; conservative, and what the fixtures rely on).
fn lock_class(chain: &[String], self_ty: Option<&str>, krate: &str) -> String {
    let last = chain.last().map(String::as_str).unwrap_or("<expr>");
    if chain.first().map(String::as_str) == Some("self") {
        if let Some(ty) = self_ty {
            if chain.len() == 1 {
                return format!("{krate}::{ty}");
            }
            return format!("{krate}::{ty}.{last}");
        }
    }
    format!("{krate}::{last}")
}

/// How long the guard produced at `acq` (token index of the acquiring
/// call) is held: `let`-bound guards live to end of scope or an explicit
/// `drop(name)`; temporaries (including `let _ =`) die at statement end.
fn guard_extent(toks: &[Tok], acq: usize, body_close: usize) -> (usize, Option<String>) {
    let start = stmt_start(toks, acq);
    let s_end = stmt_end(toks, acq).min(body_close);
    // `let [mut] NAME = …`
    let mut j = start;
    if !toks.get(j).map(|t| t.is_ident("let")).unwrap_or(false) {
        return (s_end, None);
    }
    j += 1;
    if toks.get(j).map(|t| t.is_ident("mut")).unwrap_or(false) {
        j += 1;
    }
    let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return (s_end, None);
    };
    let name = name_tok.text.clone();
    if name == "_" {
        return (s_end, None); // dropped immediately
    }
    // Scope close: first `}` that takes brace depth negative after the
    // statement, or an explicit drop(name)/mem::forget(name).
    let mut depth = 0i32;
    let mut k = s_end;
    while k < body_close {
        let t = &toks[k];
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return (k, Some(name));
                }
            }
            TokKind::Ident
                if depth >= 0
                    && (t.text == "drop" || t.text == "forget")
                    && toks.get(k + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                    && toks.get(k + 2).map(|n| n.is_ident(&name)).unwrap_or(false) =>
            {
                return (k, Some(name));
            }
            _ => {}
        }
        k += 1;
    }
    (body_close, Some(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> ItemGraph {
        let ctx = FileContext {
            path: "crates/core/src/fixture.rs".to_string(),
            crate_name: "core".to_string(),
        };
        ItemGraph::build(vec![ParsedFile::parse(ctx, src)], &Config::default())
    }

    #[test]
    fn collects_fns_methods_and_error_enums() {
        let g = graph_of(
            r#"
            pub enum CoreError { Bad }
            pub type Result<T> = std::result::Result<T, CoreError>;
            impl From<StorageError> for CoreError { fn from(e: StorageError) -> CoreError { CoreError::Bad } }
            pub fn free() -> Result<u32> { Ok(1) }
            struct Db;
            impl Db {
                fn answer(&self) -> Result<u32> { free() }
            }
            "#,
        );
        assert!(g.error_enums["core"].contains("CoreError"));
        assert_eq!(g.result_alias_err["core"], "CoreError");
        assert!(g
            .from_impls
            .contains(&("CoreError".into(), "StorageError".into())));
        let free = &g.fns[g.free_fns[&("core".into(), "free".into())][0]];
        assert_eq!(free.err_ty.as_deref(), Some("CoreError"));
        let answer = &g.fns[g.methods["Db"]["answer"][0]];
        assert!(answer.calls.iter().any(|c| c.name == "free" && !c.method));
    }

    #[test]
    fn lock_classes_and_guard_extents() {
        let g = graph_of(
            r#"
            struct Cache { inner: Mutex<u32> }
            impl Cache {
                fn bump(&self) {
                    let g = self.inner.lock();
                    touch();
                }
                fn peek(&self) -> u32 {
                    *self.inner.lock()
                }
            }
            fn touch() {}
            "#,
        );
        let bump = &g.fns[g.methods["Cache"]["bump"][0]];
        assert_eq!(bump.locks.len(), 1);
        assert_eq!(bump.locks[0].class, "core::Cache.inner");
        assert_eq!(bump.locks[0].guard.as_deref(), Some("g"));
        // The guard is held across the later `touch()` call.
        let call = bump.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!(call.tok < bump.locks[0].hold_end);
        // A temporary dies at statement end.
        let peek = &g.fns[g.methods["Cache"]["peek"][0]];
        assert!(peek.locks[0].guard.is_none());
    }

    #[test]
    fn transitive_locks_cross_functions() {
        let g = graph_of(
            r#"
            struct A { m: Mutex<u32> }
            impl A {
                fn outer(&self) { self.locker(); }
                fn locker(&self) { let _g = self.m.lock(); }
            }
            "#,
        );
        let outer = g.methods["A"]["outer"][0];
        assert!(g.transitive_locks(outer).contains("core::A.m"));
    }

    #[test]
    fn ambiguous_methods_do_not_resolve() {
        let g = graph_of(
            r#"
            struct X; struct Y;
            impl X { fn poke(&self) {} }
            impl Y { fn poke(&self) {} }
            fn caller(x: &X) { x.poke(); }
            "#,
        );
        let caller = &g.fns[g.free_fns[&("core".into(), "caller".into())][0]];
        let call = caller.calls.iter().find(|c| c.name == "poke").unwrap();
        assert!(g.resolve_call(caller, call).is_none());
    }
}
