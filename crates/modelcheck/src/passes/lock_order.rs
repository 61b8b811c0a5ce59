//! The `lock-order` pass: a static deadlock detector over the
//! workspace call graph.
//!
//! **Harvest** walks every function body once and records a
//! [`FnLocks`] summary: the lock classes it acquires directly, the
//! resolved calls it makes while a guard is live, whether its body is
//! a guard-returning helper (the gateway's `seq_lock()` pattern), and
//! its first directly blocking site (I/O or `sleep`). A *lock class*
//! names the lock object, not the guard: `read_lock(&self.shards[0])`
//! is `shards[0]`, a variable index is `shards[_]`, and a method-form
//! acquisition (`self.seq.lock()`) takes the receiver's last field
//! name (`seq`). Call sites of a guard-returning helper count as
//! acquisitions of the returned class.
//!
//! **Emit** closes the summaries over the call graph and reports two
//! hazards:
//!
//! 1. **Ordering cycles.** Every "class A held while acquiring class
//!    B" pair — a nested acquisition in one body, or a guard held
//!    across a call whose closure acquires B — is an edge A → B. An
//!    edge on a cycle (including A → A: re-acquiring a held class
//!    through a callee self-deadlocks) is reported at its acquisition
//!    or call site.
//! 2. **Guard held across a blocking callee.** A resolved call made
//!    with a guard live, where the callee's closure performs I/O or
//!    sleeps, turns the critical section into an I/O-length one —
//!    the cross-function version of lock-discipline's "guard across
//!    I/O" rule (which only sees the current body).
//!
//! Findings are emitted only in files whose crate opted into
//! `lock-order`; `modelcheck-allow: lock-order — <why>` suppresses a
//! site; `#[cfg(test)]` code is exempt.

use super::lock::{acquisition_at, binding_name, io_at};
use crate::ast::{Ast, BlockId, Span, StmtKind};
use crate::graph::{CallGraph, FileCtx, NodeId};
use crate::lexer::{TokKind, Token};
use crate::{Diagnostic, Rule};
use std::collections::{BTreeSet, HashSet};

/// The per-function lock summary.
#[derive(Debug, Clone, Default)]
pub struct FnLocks {
    /// Lock classes acquired directly in this body.
    pub acquires: Vec<Acq>,
    /// Resolved calls made while a guard is live.
    pub held_calls: Vec<HeldCall>,
    /// Nested direct acquisitions: (held class, acquired class).
    pub nested: Vec<Nested>,
    /// Set when the whole body is one guard-returning acquisition on a
    /// `self` field: callers treat calls to this fn as acquisitions.
    pub returns_lock: Option<String>,
    /// First directly blocking site: (shape, 1-based line).
    pub blocking: Option<(String, usize)>,
}

/// One direct lock acquisition.
#[derive(Debug, Clone)]
pub struct Acq {
    /// The lock class.
    pub class: String,
    /// True for `write_lock(`/`.write()`/`.lock()` (exclusive).
    pub write: bool,
    /// 1-based acquisition line.
    pub line: usize,
    /// Token index of the acquisition, for reporting.
    pub tok: usize,
}

/// One resolved call made while a guard is live.
#[derive(Debug, Clone)]
pub struct HeldCall {
    /// Class of the live guard (the outermost one of that class).
    pub class: String,
    /// The callee.
    pub callee: NodeId,
    /// 1-based line of the call.
    pub line: usize,
    /// Token index of the callee name, for reporting.
    pub tok: usize,
}

/// One nested direct acquisition (`second` acquired while `first`'s
/// guard is live).
#[derive(Debug, Clone)]
pub struct Nested {
    /// The class already held.
    pub first: String,
    /// The class being acquired.
    pub second: String,
    /// 1-based line of the second acquisition.
    pub line: usize,
    /// Token index of the second acquisition.
    pub tok: usize,
}

/// Lock acquisition for ordering purposes: the lock-discipline forms
/// plus argument-less `.lock()` (the gateway's sequencing `Mutex`).
fn acq_at(toks: &[&Token<'_>], k: usize) -> Option<(bool, usize)> {
    if let Some(hit) = acquisition_at(toks, k) {
        return Some(hit);
    }
    let t = toks[k];
    if t.kind == TokKind::Ident
        && t.text == "lock"
        && k > 0
        && toks[k - 1].text == "."
        && toks.get(k + 1).is_some_and(|n| n.text == "(")
        && toks.get(k + 2).is_some_and(|n| n.text == ")")
    {
        return Some((true, t.line));
    }
    None
}

/// The class of the lock acquired at `toks[k]` (an [`acq_at`] hit).
fn class_of(toks: &[&Token<'_>], ast: &Ast, k: usize) -> String {
    if matches!(toks[k].text, "read_lock" | "write_lock") {
        // Helper form: the class lives in the argument.
        let open = k + 1;
        let close = ast.pairs.get(open).copied().unwrap_or(usize::MAX);
        if close == usize::MAX {
            return "<lock>".to_string();
        }
        return class_of_span(toks, open + 1, close);
    }
    // Method form: the class is the receiver's last field.
    class_of_receiver(toks, k)
}

/// Last field-ish name in `toks[start..end]`, with an `[N]`/`[_]`
/// suffix when that field is indexed.
fn class_of_span(toks: &[&Token<'_>], start: usize, end: usize) -> String {
    let mut base = None;
    for k in start..end.min(toks.len()) {
        let t = toks[k];
        if t.kind != TokKind::Ident || matches!(t.text, "self" | "mut" | "ref") {
            continue;
        }
        if toks.get(k + 1).is_some_and(|n| n.text == "[") {
            let lit = toks
                .get(k + 2)
                .filter(|i| i.kind == TokKind::Number)
                .filter(|_| toks.get(k + 3).is_some_and(|n| n.text == "]"));
            return match lit {
                Some(i) => format!("{}[{}]", t.text, i.text),
                None => format!("{}[_]", t.text),
            };
        }
        base = Some(t.text.to_string());
    }
    base.unwrap_or_else(|| "<lock>".to_string())
}

/// Class from the receiver chain of a method-form acquisition at
/// `toks[k]` (`self.shards[i].read()` → `shards[_]`,
/// `self.seq.lock()` → `seq`).
fn class_of_receiver(toks: &[&Token<'_>], k: usize) -> String {
    if k < 2 {
        return "<lock>".to_string();
    }
    let j = k - 2; // the token before the `.`
    match toks[j].text {
        "]" => {
            // Indexed field: find the matching `[` backward.
            let mut depth = 0i64;
            let mut m = j;
            loop {
                match toks[m].text {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if m == 0 {
                    return "<lock>".to_string();
                }
                m -= 1;
            }
            let base = if m > 0 && toks[m - 1].kind == TokKind::Ident {
                toks[m - 1].text
            } else {
                return "<lock>".to_string();
            };
            let lit = (m + 2 == j && toks[m + 1].kind == TokKind::Number).then(|| toks[m + 1].text);
            match lit {
                Some(i) => format!("{base}[{i}]"),
                None => format!("{base}[_]"),
            }
        }
        _ if toks[j].kind == TokKind::Ident => toks[j].text.to_string(),
        _ => "<lock>".to_string(),
    }
}

/// True when the receiver chain ending right before the `.` at
/// `toks[k - 1]` starts at `self` (so the lock is a field of the
/// object, not a parameter — the guard-returning-helper criterion).
fn receiver_is_self_field(toks: &[&Token<'_>], k: usize) -> bool {
    if k < 2 {
        return false;
    }
    let mut m = k - 2;
    while m >= 2 && toks[m].kind == TokKind::Ident && toks[m - 1].text == "." {
        m -= 2;
    }
    toks[m].kind == TokKind::Ident && toks[m].text == "self"
}

/// Detects the guard-returning-helper shape: a one-statement body
/// whose expression is an acquisition on a `self` field (trailing
/// `unwrap_or_else`/`?` plumbing is fine).
fn returns_lock_of(toks: &[&Token<'_>], ast: &Ast, body: BlockId) -> Option<String> {
    let block = &ast.blocks[body];
    if block.stmts.len() != 1 {
        return None;
    }
    let StmtKind::Expr(_) = block.stmts[0].kind else { return None };
    for k in block.open + 1..block.close {
        if acq_at(toks, k).is_some() && toks[k - 1].text == "." && receiver_is_self_field(toks, k) {
            return Some(class_of(toks, ast, k));
        }
    }
    None
}

/// A live guard during the harvest walk.
struct Guard {
    /// Binding name when `let`-bound; `None` for a temporary.
    name: Option<String>,
    /// The guarded lock's class.
    class: String,
    /// Block depth at acquisition (body entry is depth 1).
    depth: i64,
}

struct Harvester<'w, 't, 'a> {
    files: &'w [FileCtx<'t, 'a>],
    g: &'w CallGraph,
    /// Pre-computed guard-returning classes, indexed by node.
    returns: &'w [Option<String>],
    node: NodeId,
    guards: Vec<Guard>,
    depth: i64,
    out: FnLocks,
}

impl<'w, 't, 'a> Harvester<'w, 't, 'a> {
    fn toks(&self) -> &'t [&'t Token<'a>] {
        self.files[self.g.nodes[self.node].file].toks
    }

    fn ast(&self) -> &'t Ast {
        self.files[self.g.nodes[self.node].file].ast
    }

    fn walk_block(&mut self, b: BlockId) {
        self.depth += 1;
        let ast = self.ast();
        for stmt in &ast.blocks[b].stmts {
            let mut nested: Vec<BlockId> = Vec::new();
            match &stmt.kind {
                StmtKind::Item => continue, // nested fns harvest on their own
                StmtKind::Let { init: Some(e), .. } | StmtKind::Expr(e) => {
                    self.ast().blocks_of_expr(*e, &mut nested);
                }
                StmtKind::Let { .. } => {}
            }
            nested.sort_by_key(|&nb| self.ast().blocks[nb].open);
            self.scan_span(stmt.span, &nested);
            // Unbound temporaries die at statement end.
            let d = self.depth;
            self.guards.retain(|g| !(g.name.is_none() && g.depth == d));
        }
        self.depth -= 1;
        let d = self.depth;
        self.guards.retain(|g| g.depth <= d);
    }

    /// Scans a statement's tokens in source order, recursing into each
    /// nested block at its position so guard lifetimes stay accurate.
    fn scan_span(&mut self, span: Span, nested: &[BlockId]) {
        let mut ni = 0;
        let mut k = span.0;
        while k < span.1.min(self.toks().len()) {
            if ni < nested.len() && self.ast().blocks[nested[ni]].open == k {
                let close = self.ast().blocks[nested[ni]].close;
                self.walk_block(nested[ni]);
                ni += 1;
                k = close + 1;
                continue;
            }
            let toks = self.toks();
            let t = toks[k];
            if t.text == "drop"
                && t.kind == TokKind::Ident
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
                && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && toks.get(k + 3).is_some_and(|n| n.text == ")")
            {
                let name = toks[k + 2].text;
                self.guards.retain(|g| g.name.as_deref() != Some(name));
                k += 4;
                continue;
            }
            // Direct acquisition, or a call to a guard-returning helper.
            // Call edges sit only at identifier tokens.
            let callee =
                if t.kind == TokKind::Ident { self.g.callee_of(self.node, k) } else { None };
            let direct = acq_at(toks, k).map(|(w, line)| (class_of(toks, self.ast(), k), w, line));
            let via_helper = if direct.is_none() {
                callee.and_then(|callee| {
                    self.returns[callee].clone().map(|class| (callee, class, t.line))
                })
            } else {
                None
            };
            if let Some((class, write, line)) = direct {
                self.acquire(class, write, line, k);
            } else if let Some((callee, class, line)) = via_helper {
                self.held_call(callee, k);
                self.acquire(class, true, line, k);
            } else if let Some(callee) = callee {
                self.held_call(callee, k);
            } else if self.out.blocking.is_none() {
                if let Some(what) = io_at(toks, k) {
                    self.out.blocking = Some((what, t.line));
                } else if t.kind == TokKind::Ident
                    && t.text == "sleep"
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
                {
                    self.out.blocking = Some(("`sleep(`".to_string(), t.line));
                }
            }
            k += 1;
        }
    }

    fn acquire(&mut self, class: String, write: bool, line: usize, k: usize) {
        for g in &self.guards {
            if !self
                .out
                .nested
                .iter()
                .any(|n| n.first == g.class && n.second == class && n.line == line)
            {
                self.out.nested.push(Nested {
                    first: g.class.clone(),
                    second: class.clone(),
                    line,
                    tok: k,
                });
            }
        }
        if !self.out.acquires.iter().any(|a| a.class == class && a.line == line) {
            self.out.acquires.push(Acq { class: class.clone(), write, line, tok: k });
        }
        let name = binding_name(self.toks(), k, k + 1);
        self.guards.push(Guard { name, class, depth: self.depth });
    }

    fn held_call(&mut self, callee: NodeId, k: usize) {
        let line = self.toks()[k].line;
        let classes: Vec<String> = self.guards.iter().map(|g| g.class.clone()).collect();
        for class in classes {
            if !self.out.held_calls.iter().any(|h| h.class == class && h.callee == callee) {
                self.out.held_calls.push(HeldCall { class, callee, line, tok: k });
            }
        }
    }
}

/// Harvests the per-function lock summaries.
pub fn harvest(files: &[FileCtx<'_, '_>], g: &CallGraph) -> Vec<FnLocks> {
    let returns: Vec<Option<String>> = g
        .nodes
        .iter()
        .map(|n| {
            let f = &files[n.file];
            returns_lock_of(f.toks, f.ast, n.body)
        })
        .collect();
    let mut out = Vec::with_capacity(g.nodes.len());
    for id in 0..g.nodes.len() {
        let mut h = Harvester {
            files,
            g,
            returns: &returns,
            node: id,
            guards: Vec::new(),
            depth: 0,
            out: FnLocks::default(),
        };
        let body = g.nodes[id].body;
        h.walk_block(body);
        h.out.returns_lock = returns[id].clone();
        out.push(h.out);
    }
    out
}

/// One ordering edge: `from` held while acquiring `to`.
struct Edge {
    from: String,
    to: String,
    /// Node whose body carries the site.
    node: NodeId,
    line: usize,
    tok: usize,
    /// Callee the acquisition happens through, when cross-function.
    via: Option<NodeId>,
}

/// Closes the summaries over the call graph and reports ordering
/// cycles and guards held across blocking callees.
pub fn emit(files: &[FileCtx<'_, '_>], g: &CallGraph, locks: &[FnLocks]) -> Vec<Diagnostic> {
    let n = g.nodes.len();
    // Transitive acquired-class sets.
    let mut acq: Vec<BTreeSet<String>> =
        locks.iter().map(|l| l.acquires.iter().map(|a| a.class.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut add = Vec::new();
            for site in &g.edges[id] {
                for c in &acq[site.callee] {
                    if !acq[id].contains(c) {
                        add.push(c.clone());
                    }
                }
            }
            for c in add {
                changed |= acq[id].insert(c);
            }
        }
        if !changed {
            break;
        }
    }
    // Transitive blocking sites: own first, else the first callee's.
    let mut blocking: Vec<Option<(String, String)>> = locks
        .iter()
        .enumerate()
        .map(|(id, l)| {
            l.blocking.as_ref().map(|(what, line)| {
                (what.clone(), format!("{}:{line}", files[g.nodes[id].file].input.rel))
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if blocking[id].is_some() {
                continue;
            }
            let hit = g.edges[id].iter().find_map(|s| blocking[s.callee].clone());
            if hit.is_some() {
                blocking[id] = hit;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Ordering edges: intra-body nested pairs, plus guards held across
    // calls whose closure acquires further classes.
    let mut edges: Vec<Edge> = Vec::new();
    for (id, l) in locks.iter().enumerate() {
        for nst in &l.nested {
            edges.push(Edge {
                from: nst.first.clone(),
                to: nst.second.clone(),
                node: id,
                line: nst.line,
                tok: nst.tok,
                via: None,
            });
        }
        for hc in &l.held_calls {
            for to in &acq[hc.callee] {
                edges.push(Edge {
                    from: hc.class.clone(),
                    to: to.clone(),
                    node: id,
                    line: hc.line,
                    tok: hc.tok,
                    via: Some(hc.callee),
                });
            }
        }
    }
    // Class-level adjacency for cycle queries.
    let mut adj: Vec<(String, String)> = Vec::new();
    for e in &edges {
        if !adj.iter().any(|(a, b)| *a == e.from && *b == e.to) {
            adj.push((e.from.clone(), e.to.clone()));
        }
    }
    let reaches = |start: &str, target: &str| -> bool {
        let mut stack = vec![start];
        let mut seen: HashSet<&str> = HashSet::new();
        while let Some(x) = stack.pop() {
            for (a, b) in &adj {
                if a == x {
                    if b == target {
                        return true;
                    }
                    if seen.insert(b) {
                        stack.push(b);
                    }
                }
            }
        }
        false
    };

    let mut diags = Vec::new();
    let mut reported: HashSet<(usize, usize, String, String)> = HashSet::new();
    for e in &edges {
        if !reaches(&e.to, &e.from) {
            continue;
        }
        let f = &files[g.nodes[e.node].file];
        if !f.input.scope.lock_order
            || f.input.in_test(e.line)
            || f.input.allowed(e.line - 1, Rule::LockOrder)
        {
            continue;
        }
        if !reported.insert((g.nodes[e.node].file, e.line, e.from.clone(), e.to.clone())) {
            continue;
        }
        let t = f.toks[e.tok];
        let how = match e.via {
            Some(callee) => format!(
                "calling `{}`, whose call closure acquires `{}`",
                g.nodes[callee].name, e.to
            ),
            None => format!("acquiring `{}`", e.to),
        };
        let back = if e.from == e.to {
            "re-acquiring a held lock self-deadlocks".to_string()
        } else {
            format!(
                "elsewhere `{}` is held while `{}` is acquired, so two threads can deadlock",
                e.to, e.from
            )
        };
        diags.push(Diagnostic::spanned(
            f.input.rel,
            t.line,
            t.col,
            t.col + t.text.len(),
            Rule::LockOrder,
            format!(
                "lock-order cycle: guard on `{}` is live while {how}, and {back} — \
                 acquire the classes in one global order or narrow the first guard's \
                 scope (justify with `modelcheck-allow: lock-order`)",
                e.from
            ),
        ));
    }

    // Guards held across blocking callees.
    for (id, l) in locks.iter().enumerate() {
        let f = &files[g.nodes[id].file];
        if !f.input.scope.lock_order {
            continue;
        }
        for hc in &l.held_calls {
            let Some((what, site)) = &blocking[hc.callee] else { continue };
            if f.input.in_test(hc.line) || f.input.allowed(hc.line - 1, Rule::LockOrder) {
                continue;
            }
            if !reported.insert((g.nodes[id].file, hc.line, hc.class.clone(), "<blocking>".into()))
            {
                continue;
            }
            let t = f.toks[hc.tok];
            diags.push(Diagnostic::spanned(
                f.input.rel,
                t.line,
                t.col,
                t.col + t.text.len(),
                Rule::LockOrder,
                format!(
                    "guard on `{}` held across a call to `{}`, which blocks ({what} at {site}) — \
                     do the blocking work outside the critical section or justify with \
                     `modelcheck-allow: lock-order`",
                    hc.class, g.nodes[hc.callee].name
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::passes::FileInput;
    use crate::FileScope;

    fn scan(src: &str) -> Vec<Diagnostic> {
        let (input, diags) = FileInput::build("x.rs", src, FileScope::ALL);
        assert!(diags.is_empty(), "{diags:?}");
        let toks = input.code_tokens();
        let ast = parse(&toks).expect("parses");
        let files = [FileCtx { input: &input, toks: &toks, ast: &ast, crate_dir: None }];
        let g = CallGraph::build(&files);
        let locks = harvest(&files, &g);
        emit(&files, &g, &locks)
    }

    #[test]
    fn opposite_order_across_two_functions_is_a_cycle() {
        let src = "fn merge_even(&self) {\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   \x20   self.finish_even(&a);\n\
                   }\n\
                   fn finish_even(&self, a: &Shard) {\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   }\n\
                   fn merge_odd(&self) {\n\
                   \x20   let a = read_lock(&self.shards[1]);\n\
                   \x20   self.finish_odd(&a);\n\
                   }\n\
                   fn finish_odd(&self, a: &Shard) {\n\
                   \x20   let b = read_lock(&self.shards[0]);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 2, "one finding per direction: {d:?}");
        assert!(d[0].message.contains("lock-order cycle"), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("finish_even")), "{d:?}");
    }

    #[test]
    fn consistent_order_across_functions_is_fine() {
        let src = "fn merge_even(&self) {\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   \x20   self.finish_even(&a);\n\
                   }\n\
                   fn finish_even(&self, a: &Shard) {\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   }\n\
                   fn also_ordered(&self) {\n\
                   \x20   let a = read_lock(&self.shards[0]);\n\
                   \x20   let b = read_lock(&self.shards[1]);\n\
                   }\n";
        // The intra-body pair in `also_ordered` is lock-discipline's
        // finding, not lock-order's: same direction, no cycle.
        assert!(scan(src).iter().all(|d| d.rule != Rule::LockOrder), "{:?}", scan(src));
    }

    #[test]
    fn reacquiring_a_held_class_through_a_callee_self_deadlocks() {
        let src = "fn outer(&self) {\n\
                   \x20   let a = write_lock(&self.shards[0]);\n\
                   \x20   self.inner();\n\
                   }\n\
                   fn inner(&self) {\n\
                   \x20   let b = read_lock(&self.shards[0]);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("self-deadlocks"), "{d:?}");
    }

    #[test]
    fn guard_returning_helper_counts_as_an_acquisition() {
        let src = "impl Gw {\n\
                   \x20 fn seq_lock(&self) -> MutexGuard<'_, J> {\n\
                   \x20     self.seq.lock().unwrap_or_else(PoisonError::into_inner)\n\
                   \x20 }\n\
                   \x20 fn a(&self) {\n\
                   \x20     let g = self.seq_lock();\n\
                   \x20     let h = read_lock(&self.shards[0]);\n\
                   \x20 }\n\
                   \x20 fn b(&self) {\n\
                   \x20     let h = read_lock(&self.shards[0]);\n\
                   \x20     let g = self.seq_lock();\n\
                   \x20 }\n\
                   }\n";
        let d = scan(src);
        assert!(!d.is_empty(), "opposite seq/shard orders must cycle: {d:?}");
        assert!(d.iter().all(|x| x.message.contains("lock-order cycle")), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("`seq`")), "{d:?}");
    }

    #[test]
    fn guard_across_blocking_callee_is_flagged() {
        let src = "fn publish(&self) {\n\
                   \x20   let g = read_lock(&self.shards[0]);\n\
                   \x20   self.append_all(&g);\n\
                   }\n\
                   fn append_all(&self, s: &Shard) {\n\
                   \x20   self.file.write_all(s.bytes()).ok();\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("which blocks"), "{d:?}");
        assert!(d[0].message.contains("write_all"), "{d:?}");
        assert_eq!(d[0].line, 3, "reported at the held call site");
    }

    #[test]
    fn blocking_callee_without_a_guard_is_fine() {
        let src = "fn publish(&self) {\n\
                   \x20   let bytes = self.snapshot();\n\
                   \x20   self.append_all(&bytes);\n\
                   }\n\
                   fn snapshot(&self) -> Vec<u8> { Vec::new() }\n\
                   fn append_all(&self, s: &[u8]) {\n\
                   \x20   self.file.write_all(s).ok();\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn allow_suppresses_and_tests_are_exempt() {
        let src = "fn on_report(&self) {\n\
                   \x20   let g = self.seq_lock();\n\
                   \x20   // modelcheck-allow: lock-order — journal append is the designed \
                   serialization point\n\
                   \x20   self.append_all(&g);\n\
                   }\n\
                   fn seq_lock(&self) -> MutexGuard<'_, J> {\n\
                   \x20   self.seq.lock().unwrap_or_else(PoisonError::into_inner)\n\
                   }\n\
                   fn append_all(&self, s: &J) {\n\
                   \x20   self.file.write_all(s.bytes()).ok();\n\
                   }\n";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }
}
