//! The semantic lint catalog (L007–L011, plus L015) over the item graph.
//!
//! | lint | rule |
//! |------|------|
//! | L007 | the lock acquisition-order graph must be acyclic (deadlock freedom) |
//! | L008 | `?` crossing a crate boundary must map into the receiving crate's error enum; no `Box<dyn Error>` in public signatures |
//! | L009 | every `Obs` span / stopwatch must be held in a binding that reaches end of scope — no `let _ =`, statement-position drops, `mem::forget` leaks or unread stopwatches |
//! | L010 | no blocking calls (`thread::sleep`, filesystem / network I/O) inside spawned worker closures; no sleeps while a span guard is live |
//! | L011 | every library crate carries `#![forbid(unsafe_code)]`, and no scanned file bypasses it |
//! | L015 | crates in `sync_scope_crates` must not name raw sync primitives (`raw_sync_paths`) — everything goes through the `rdfref_sync` facade so model-check builds can instrument it |
//!
//! Test-only code (`#[cfg(test)]`, `mod tests`) is exempt throughout, as
//! for the token lints. All rules resolve names through
//! [`ItemGraph`] and stay silent on anything the
//! conservative resolver cannot pin down — a finding is always backed by a
//! positively-resolved structure, never a guess.

use crate::config::Config;
use crate::graph::{Call, ItemGraph};
use crate::items::{matching, stmt_end, stmt_start, Item};
use crate::lexer::{Tok, TokKind};
use crate::lints::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// Run L007–L011 over the whole graph.
pub fn semantic_lints(graph: &ItemGraph, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    lint_l007(graph, &mut out);
    lint_l008(graph, &mut out);
    lint_l009(graph, &mut out);
    lint_l010(graph, &mut out);
    lint_l011(graph, cfg, &mut out);
    lint_l015(graph, cfg, &mut out);
    out
}

/// Drop L001 findings on `.expect(…)` calls whose receiver resolves to a
/// *domain* method named `expect` — e.g. the obs JSON parser's
/// `self.expect(b'"')` — rather than `Option::expect`/`Result::expect`.
/// Token-level L001 cannot see the receiver type; the item graph can.
pub fn refine_l001(graph: &ItemGraph, findings: Vec<Violation>) -> Vec<Violation> {
    findings
        .into_iter()
        .filter(|v| !is_domain_expect(graph, v))
        .collect()
}

fn is_domain_expect(graph: &ItemGraph, v: &Violation) -> bool {
    if v.lint != "L001" || !v.message.contains(".expect()") {
        return false;
    }
    let Some(fi) = graph.files.iter().position(|pf| pf.ctx.path == v.file) else {
        return false;
    };
    let toks = &graph.files[fi].toks;
    let Some(i) = toks
        .iter()
        .position(|t| t.line == v.line && t.col == v.col && t.is_ident("expect"))
    else {
        return false;
    };
    if i == 0 || !toks[i - 1].is_punct('.') {
        return false;
    }
    let chain = crate::items::receiver_chain(toks, i - 1);
    // Only a plain `self.expect(…)` is resolvable with confidence: the
    // enclosing impl type must itself define `expect`.
    if chain.as_slice() == ["self"] {
        if let Some(ty) = graph.impl_ty_at(fi, i) {
            return graph.type_has_method(&ty, "expect");
        }
    }
    false
}

// ---- L007: lock-order cycles ----------------------------------------------

#[derive(Debug, Clone)]
struct EdgeSite {
    file: String,
    line: u32,
    col: u32,
}

/// Build the acquisition-order graph — an edge `A → B` whenever a lock of
/// class `B` is acquired (directly, or transitively through a resolved
/// call) while a guard of class `A` is held — and report every cycle.
fn lint_l007(graph: &ItemGraph, out: &mut Vec<Violation>) {
    // class → class → first witness site (deterministic: fns in file order).
    let mut edges: BTreeMap<String, BTreeMap<String, EdgeSite>> = BTreeMap::new();
    for f in &graph.fns {
        if f.cfg_test {
            continue;
        }
        let toks = &graph.files[f.file].toks;
        let path = &graph.files[f.file].ctx.path;
        for acq in &f.locks {
            let held = acq.tok + 1..acq.hold_end;
            let mut add = |to: &str, at: &Tok| {
                edges
                    .entry(acq.class.clone())
                    .or_default()
                    .entry(to.to_string())
                    .or_insert_with(|| EdgeSite {
                        file: path.clone(),
                        line: at.line,
                        col: at.col,
                    });
            };
            for other in &f.locks {
                if held.contains(&other.tok) {
                    add(&other.class, &toks[other.tok]);
                }
            }
            for call in &f.calls {
                if !held.contains(&call.tok) {
                    continue;
                }
                if let Some(t) = graph.resolve_call(f, call) {
                    for cls in graph.transitive_locks(t) {
                        add(cls, &toks[call.tok]);
                    }
                }
            }
        }
    }

    // Strongly connected components over the class graph; every SCC with a
    // cycle (size > 1, or a self-loop) is a deadlock hazard.
    let nodes: Vec<&String> = edges.keys().collect();
    let index: BTreeMap<&String, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            edges[*n]
                .keys()
                .filter_map(|t| index.get(t).copied())
                .collect()
        })
        .collect();
    for scc in tarjan_sccs(&adj) {
        let classes: Vec<&String> = {
            let mut c: Vec<&String> = scc.iter().map(|&i| nodes[i]).collect();
            c.sort();
            c
        };
        let cyclic = scc.len() > 1 || edges[classes[0]].contains_key(classes[0].as_str());
        if !cyclic {
            continue;
        }
        // Witness: the lexicographically-first edge site inside the SCC.
        let member: BTreeSet<&String> = classes.iter().copied().collect();
        let witness = classes
            .iter()
            .flat_map(|from| {
                edges[from.as_str()]
                    .iter()
                    .map(move |(to, s)| (from, to, s))
            })
            .filter(|(_, to, _)| member.contains(to))
            .min_by_key(|(_, _, s)| (s.file.clone(), s.line, s.col))
            .map(|(_, _, s)| s.clone());
        let Some(site) = witness else { continue };
        let cycle = classes
            .iter()
            .map(|c| c.as_str())
            .collect::<Vec<_>>()
            .join(" → ");
        out.push(Violation { related: Vec::new(),
            lint: "L007",
            file: site.file,
            line: site.line,
            col: site.col,
            message: format!(
                "lock-order cycle: {cycle} — a thread holding one class can block on another holding the next; impose a single acquisition order or narrow the guard"
            ),
        });
    }
}

/// Iterative Tarjan SCC; returns components in a deterministic order.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, next-child position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().unwrap_or(v);
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

// ---- L008: cross-crate error discipline -----------------------------------

/// Chain adapters that consciously transform the error before `?`.
const ERR_ADAPTERS: &[&str] = &["map_err", "ok_or", "ok_or_else", "or_else"];

fn lint_l008(graph: &ItemGraph, out: &mut Vec<Violation>) {
    for f in &graph.fns {
        if f.cfg_test {
            continue;
        }
        let file = &graph.files[f.file];
        let toks = &file.toks;
        // Anonymous boxed errors in public signatures.
        if f.is_pub {
            let (po, pc) = f.sig.params;
            let (ro, rc) = f.sig.ret;
            for range in [po..pc + 1, ro..rc] {
                if let Some(at) = find_boxed_error(toks, range.start, range.end) {
                    out.push(Violation { related: Vec::new(),
                        lint: "L008",
                        file: file.ctx.path.clone(),
                        line: toks[at].line,
                        col: toks[at].col,
                        message: format!(
                            "pub fn {}: `Box<dyn Error>` erases the failure mode at a crate boundary — use the crate's error enum",
                            f.name
                        ),
                    });
                }
            }
        }
        // `?` discipline.
        let Some((open, close)) = f.sig.body else {
            continue;
        };
        let Some(local_err) = f.err_ty.clone() else {
            continue;
        };
        for i in open + 1..close {
            if !toks[i].is_punct('?') {
                continue;
            }
            let chain = question_chain(toks, i);
            if chain.is_empty() || chain.iter().any(|s| ERR_ADAPTERS.contains(&s.as_str())) {
                continue;
            }
            let name = chain[chain.len() - 1].clone();
            // `a.f(x)?` has a receiver in the chain; bare `f(x)?` is free.
            let method = chain.len() > 1;
            let qualifier = if method {
                None
            } else {
                free_call_qualifier(toks, i, &name)
            };
            let call = Call {
                name,
                tok: i,
                method,
                recv_self: chain.first().map(|s| s == "self").unwrap_or(false),
                qualifier,
            };
            let Some(t) = graph.resolve_call(f, &call) else {
                continue;
            };
            let callee = &graph.fns[t];
            if callee.krate == f.krate {
                continue;
            }
            let Some(callee_err) = callee.err_ty.clone() else {
                continue;
            };
            if callee_err == local_err {
                continue;
            }
            if graph
                .from_impls
                .contains(&(local_err.clone(), callee_err.clone()))
            {
                continue;
            }
            out.push(Violation { related: Vec::new(),
                lint: "L008",
                file: file.ctx.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "`?` maps {callee_err} (crate `{}`) into `{}`'s {local_err} with no `impl From<{callee_err}> for {local_err}` — add the From impl or map_err explicitly",
                    callee.krate, f.krate
                ),
            });
        }
    }
}

/// `Box < dyn … Error …` inside `[from, to)`; returns the `Box` index.
fn find_boxed_error(toks: &[Tok], from: usize, to: usize) -> Option<usize> {
    let to = to.min(toks.len());
    for i in from..to {
        if !toks[i].is_ident("Box") {
            continue;
        }
        if !toks.get(i + 1).map(|t| t.is_punct('<')).unwrap_or(false) {
            continue;
        }
        if !toks.get(i + 2).map(|t| t.is_ident("dyn")).unwrap_or(false) {
            continue;
        }
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().skip(i + 1).take(to - i) {
            match t.kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident if t.text.ends_with("Error") => return Some(i),
                _ => {
                    let _ = j;
                }
            }
        }
    }
    None
}

/// The method chain feeding a `?` at `q`, bottom-up — for
/// `self.eval.eval_ucq(x)?` this is `["self", "eval", "eval_ucq"]`.
/// Reuses the receiver-chain walker: a `?` sits where a `.` would.
fn question_chain(toks: &[Tok], q: usize) -> Vec<String> {
    crate::items::receiver_chain(toks, q)
}

/// For a free call `seg::name(…)?`, the path segment before `::`.
fn free_call_qualifier(toks: &[Tok], q: usize, name: &str) -> Option<String> {
    // Find the name token: walk back from `?` past the call's parens.
    let mut i = q;
    if i == 0 {
        return None;
    }
    i -= 1;
    if toks[i].is_punct(')') {
        let mut depth = 0i32;
        loop {
            if toks[i].is_punct(')') {
                depth += 1;
            } else if toks[i].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if i == 0 {
                return None;
            }
            i -= 1;
        }
    }
    if i == 0 || !toks[i - 1].is_ident(name) {
        return None;
    }
    let n = i - 1;
    if n >= 2 && toks[n - 1].is_punct(':') && toks[n - 2].is_punct(':') {
        return toks
            .get(n.wrapping_sub(3))
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
    }
    None
}

// ---- L009: span-guard hygiene ---------------------------------------------

fn lint_l009(graph: &ItemGraph, out: &mut Vec<Violation>) {
    for f in &graph.fns {
        if f.cfg_test {
            continue;
        }
        let Some((open, close)) = f.sig.body else {
            continue;
        };
        let file = &graph.files[f.file];
        let toks = &file.toks;
        let path = &file.ctx.path;
        // Named span guards: (name, scope token range) for forget checks.
        let mut guards: Vec<(String, usize, usize)> = Vec::new();
        for i in open + 1..close {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let called = i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false);
            if !called {
                continue;
            }
            if t.text == "span" {
                match binding_of(toks, i) {
                    Binding::Underscore(at) => out.push(Violation { related: Vec::new(),
                        lint: "L009",
                        file: path.clone(),
                        line: toks[at].line,
                        col: toks[at].col,
                        message: "span guard bound to `_` — it drops immediately and records a zero-length span; bind it to a named `_span` guard".to_string(),
                    }),
                    Binding::None(at) => out.push(Violation { related: Vec::new(),
                        lint: "L009",
                        file: path.clone(),
                        line: toks[at].line,
                        col: toks[at].col,
                        message: "span opened in statement position — the guard drops at the `;`; bind it (`let _span = …`) or use the span! macro".to_string(),
                    }),
                    Binding::Named(name) => {
                        let end = scope_close(toks, stmt_end(toks, i).min(close), close);
                        guards.push((name, i, end));
                    }
                    Binding::Consumed => {}
                }
            }
            if t.text == "stopwatch" {
                match binding_of(toks, i) {
                    Binding::Named(name) => {
                        let s_end = stmt_end(toks, i).min(close);
                        let end = scope_close(toks, s_end, close);
                        let read = (s_end..end).any(|k| {
                            toks[k].is_ident(&name)
                                && toks.get(k + 1).map(|n| n.is_punct('.')).unwrap_or(false)
                                && toks
                                    .get(k + 2)
                                    .map(|n| n.is_ident("elapsed"))
                                    .unwrap_or(false)
                        });
                        if !read {
                            out.push(Violation { related: Vec::new(),
                                lint: "L009",
                                file: path.clone(),
                                line: t.line,
                                col: t.col,
                                message: format!(
                                    "stopwatch `{name}` is started but `elapsed()` is never read in its scope — the measurement is stranded"
                                ),
                            });
                        }
                    }
                    Binding::Underscore(at) | Binding::None(at) => out.push(Violation {
                        related: Vec::new(),
                        lint: "L009",
                        file: path.clone(),
                        line: toks[at].line,
                        col: toks[at].col,
                        message: "stopwatch started without a binding — nothing can ever read it"
                            .to_string(),
                    }),
                    Binding::Consumed => {}
                }
            }
        }
        // A forgotten guard never records its span.
        for (name, _, end) in &guards {
            for k in open + 1..*end {
                if toks[k].is_ident("forget")
                    && toks.get(k + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                    && toks.get(k + 2).map(|n| n.is_ident(name)).unwrap_or(false)
                {
                    out.push(Violation {
                        related: Vec::new(),
                        lint: "L009",
                        file: path.clone(),
                        line: toks[k].line,
                        col: toks[k].col,
                        message: format!(
                            "span guard `{name}` leaked via mem::forget — the span never ends"
                        ),
                    });
                }
            }
        }
    }
}

/// How the value produced by the call at `i` is bound.
enum Binding {
    /// `let _ = …` — the token index of the `_`.
    Underscore(usize),
    /// Bare expression statement `…;` — the statement's first token.
    None(usize),
    /// `let name = …`.
    Named(String),
    /// Part of a larger expression (passed on, returned, assigned to a
    /// field, …) — someone else owns it.
    Consumed,
}

fn binding_of(toks: &[Tok], call: usize) -> Binding {
    let ss = stmt_start(toks, call);
    if toks.get(ss).map(|t| t.is_ident("let")).unwrap_or(false) {
        let mut j = ss + 1;
        if toks.get(j).map(|t| t.is_ident("mut")).unwrap_or(false) {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
            return Binding::Consumed;
        };
        if name.text == "_" {
            return Binding::Underscore(j);
        }
        return Binding::Named(name.text.clone());
    }
    // Statement-position drop: the statement is exactly the receiver chain
    // plus the call — `obs.span("x");` / `self.obs.span("x");`.
    let Some(close) = matching(toks, call + 1, '(', ')') else {
        return Binding::Consumed;
    };
    let ends_stmt = toks
        .get(close + 1)
        .map(|t| t.is_punct(';'))
        .unwrap_or(false);
    if !ends_stmt {
        return Binding::Consumed;
    }
    // Everything from statement start to the call must be chain tokens.
    let chain_only = (ss..call)
        .all(|k| toks[k].kind == TokKind::Ident || toks[k].is_punct('.') || toks[k].is_punct('&'));
    if chain_only {
        return Binding::None(ss);
    }
    Binding::Consumed
}

/// First `}` after `from` that closes the enclosing scope (brace depth
/// goes negative), bounded by `limit`.
fn scope_close(toks: &[Tok], from: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(limit).skip(from) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    limit
}

// ---- L010: blocking calls in workers --------------------------------------

/// Identifiers that block the calling thread.
const BLOCKING_TYPES: &[&str] = &["TcpStream", "TcpListener", "UdpSocket"];

fn lint_l010(graph: &ItemGraph, out: &mut Vec<Violation>) {
    for f in &graph.fns {
        if f.cfg_test {
            continue;
        }
        let Some((open, close)) = f.sig.body else {
            continue;
        };
        let file = &graph.files[f.file];
        let toks = &file.toks;
        let path = &file.ctx.path;
        // Worker closures: arguments of `spawn(…)`.
        for i in open + 1..close {
            if !toks[i].is_ident("spawn")
                || !toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            {
                continue;
            }
            let Some(args_close) = matching(toks, i + 1, '(', ')') else {
                continue;
            };
            if let Some((b0, b1)) = closure_body(toks, i + 2, args_close) {
                scan_blocking(toks, b0, b1, path, "a spawned worker closure", true, out);
            }
        }
        // Span bodies: the live range of a named span guard.
        for i in open + 1..close {
            if !(toks[i].is_ident("span")
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false))
            {
                continue;
            }
            if let Binding::Named(_) = binding_of(toks, i) {
                let s_end = stmt_end(toks, i).min(close);
                let end = scope_close(toks, s_end, close);
                scan_blocking(
                    toks,
                    s_end,
                    end,
                    path,
                    "the body of an open span",
                    false,
                    out,
                );
            }
        }
    }
}

/// The `|…| body` inside `spawn(…)`'s arguments: token range of the body.
fn closure_body(toks: &[Tok], from: usize, to: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < to && !toks[i].is_punct('|') {
        i += 1;
    }
    if i >= to {
        return None;
    }
    // `||` (no params) lexes as two adjacent pipes.
    let params_close = if toks.get(i + 1).map(|t| t.is_punct('|')).unwrap_or(false) {
        i + 1
    } else {
        let mut j = i + 1;
        while j < to && !toks[j].is_punct('|') {
            j += 1;
        }
        j
    };
    Some((params_close + 1, to))
}

fn scan_blocking(
    toks: &[Tok],
    from: usize,
    to: usize,
    path: &str,
    where_: &str,
    io_too: bool,
    out: &mut Vec<Violation>,
) {
    let to = to.min(toks.len());
    for k in from..to {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |c: char| toks.get(k + 1).map(|n| n.is_punct(c)).unwrap_or(false);
        if t.text == "sleep" && next_is('(') {
            out.push(Violation { related: Vec::new(),
                lint: "L010",
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: format!("thread::sleep inside {where_} stalls the pipeline — remove it or move the wait outside"),
            });
            continue;
        }
        if !io_too {
            continue;
        }
        let blocking_io = (t.text == "fs" && next_is(':'))
            || (t.text == "File"
                && next_is(':')
                && toks
                    .get(k + 3)
                    .map(|n| n.is_ident("open") || n.is_ident("create"))
                    .unwrap_or(false))
            || BLOCKING_TYPES.contains(&t.text.as_str())
            || ((t.text == "stdin" || t.text == "stdout" || t.text == "stderr") && next_is('('));
        if blocking_io {
            out.push(Violation { related: Vec::new(),
                lint: "L010",
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "blocking I/O (`{}`) inside {where_} — do the I/O outside the worker and pass data in",
                    t.text
                ),
            });
        }
    }
}

// ---- L011: forbid(unsafe_code) --------------------------------------------

fn lint_l011(graph: &ItemGraph, cfg: &Config, out: &mut Vec<Violation>) {
    // Which crates have their lib.rs in the scanned set?
    let mut lib_seen: BTreeMap<&str, bool> = BTreeMap::new();
    for pf in &graph.files {
        let krate = pf.ctx.crate_name.as_str();
        if !cfg.library_crates.iter().any(|c| c == krate) {
            continue;
        }
        let is_lib = pf.ctx.path.ends_with("src/lib.rs");
        if is_lib {
            let has_forbid = has_inner_forbid_unsafe(&pf.toks);
            lib_seen.insert(krate, true);
            if !has_forbid {
                out.push(Violation { related: Vec::new(),
                    lint: "L011",
                    file: pf.ctx.path.clone(),
                    line: 1,
                    col: 1,
                    message: format!(
                        "crate `{krate}` is missing `#![forbid(unsafe_code)]` — all library crates are unsafe-free by policy"
                    ),
                });
            }
        } else {
            lib_seen.entry(krate).or_insert(false);
        }
        // Bypasses anywhere in the crate: the `unsafe` keyword, or an
        // attribute re-allowing it, outside test code.
        let mask = test_mask(&pf.toks, &pf.items);
        for (i, t) in pf.toks.iter().enumerate() {
            if mask[i] {
                continue;
            }
            if t.is_ident("unsafe") {
                out.push(Violation { related: Vec::new(),
                    lint: "L011",
                    file: pf.ctx.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`unsafe` in a forbid(unsafe_code) workspace — justify and isolate it, or remove it".to_string(),
                });
            }
            if t.is_ident("allow")
                && pf.toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
                && pf
                    .toks
                    .get(i + 2)
                    .map(|n| n.is_ident("unsafe_code"))
                    .unwrap_or(false)
            {
                out.push(Violation {
                    related: Vec::new(),
                    lint: "L011",
                    file: pf.ctx.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`allow(unsafe_code)` bypasses the workspace forbid — remove it"
                        .to_string(),
                });
            }
        }
    }
}

/// Is `#![forbid(unsafe_code)]` among the file's inner attributes?
fn has_inner_forbid_unsafe(toks: &[Tok]) -> bool {
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_punct('#') && toks[i + 1].is_punct('!')) {
            // Inner attributes must precede items; stop at the first
            // non-inner-attribute token.
            if toks[i].is_punct('#') {
                // Outer attribute: skip it and keep looking (attrs on the
                // first item may precede nothing relevant, but an inner
                // attr can no longer follow).
                return false;
            }
            return false;
        }
        let Some(close) = matching(toks, i + 2, '[', ']') else {
            return false;
        };
        let attr = &toks[i + 3..close];
        if attr.first().map(|t| t.is_ident("forbid")).unwrap_or(false)
            && attr.iter().any(|t| t.is_ident("unsafe_code"))
        {
            return true;
        }
        i = close + 1;
    }
    false
}

// ---------------------------------------------------------------------------
// L015 — raw sync primitive outside the facade.
// ---------------------------------------------------------------------------

/// The model checker can only explore schedules of code whose sync ops go
/// through `rdfref_sync` — a raw `std::sync` / `std::thread` /
/// `parking_lot` path in a facade-scoped crate is a hole in the checker's
/// coverage. One finding per path occurrence; test code is exempt (tests
/// never run under the scheduler).
fn lint_l015(graph: &ItemGraph, cfg: &Config, out: &mut Vec<Violation>) {
    let facade = cfg
        .sync_wrappers
        .first()
        .map(String::as_str)
        .unwrap_or("rdfref_sync");
    for pf in &graph.files {
        let krate = pf.ctx.crate_name.as_str();
        if !cfg.sync_scope_crates.iter().any(|c| c == krate) {
            continue;
        }
        let mask = test_mask(&pf.toks, &pf.items);
        let mut i = 0;
        while i < pf.toks.len() {
            if mask[i] || pf.toks[i].kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let hit = cfg
                .raw_sync_paths
                .iter()
                .find_map(|pat| raw_path_at(&pf.toks, i, pat).map(|end| (pat, end)));
            let Some((pat, end)) = hit else {
                i += 1;
                continue;
            };
            let t = &pf.toks[i];
            out.push(Violation {
                lint: "L015",
                file: pf.ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "raw `{pat}` in facade-scoped crate `{krate}` — import it from `{facade}` so \
                     model-check builds can instrument it"
                ),
                related: Vec::new(),
            });
            i = end;
        }
    }
}

/// If the tokens at `i` spell the `::`-separated path `pat`, one past the
/// matched tokens. A single-segment pattern (`parking_lot`) must be used
/// as a path root (`parking_lot::…`) so a like-named local binding does
/// not fire.
fn raw_path_at(toks: &[Tok], i: usize, pat: &str) -> Option<usize> {
    // Not a path continuation: `foo::std::sync` is rooted elsewhere.
    if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        return None;
    }
    let mut j = i;
    for (k, seg) in pat.split("::").enumerate() {
        if k > 0 {
            if !(toks.get(j)?.is_punct(':') && toks.get(j + 1)?.is_punct(':')) {
                return None;
            }
            j += 2;
        }
        if !toks.get(j)?.is_ident(seg) {
            return None;
        }
        j += 1;
    }
    let used_as_root = toks.get(j).map(|t| t.is_punct(':')).unwrap_or(false)
        && toks.get(j + 1).map(|t| t.is_punct(':')).unwrap_or(false);
    if !pat.contains("::") && !used_as_root {
        return None;
    }
    Some(j)
}

/// Per-token test-exemption mask from the item tree (an item marked
/// `cfg_test` exempts its whole token range).
pub(crate) fn test_mask(toks: &[Tok], items: &[Item]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    fn mark(items: &[Item], mask: &mut [bool]) {
        for item in items {
            if item.cfg_test {
                let end = item.end.min(mask.len());
                for m in mask.iter_mut().take(end).skip(item.start) {
                    *m = true;
                }
            } else {
                mark(&item.children, mask);
            }
        }
    }
    mark(items, &mut mask);
    mask
}
