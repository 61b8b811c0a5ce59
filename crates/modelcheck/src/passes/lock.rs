//! The `lock-discipline` pass: shard-lock hygiene for the concurrent
//! daemon, checked as a scope-tree walk over the parsed AST.
//!
//! Three things are diagnosed:
//!
//! 1. **Write lock in a read path.** A function annotated with a
//!    `// modelcheck: read-path` comment (on the `fn` line or in the
//!    comment/attribute block above it) promises to only ever take read
//!    locks; any `write_lock(`/`.write()` acquisition inside it is
//!    flagged.
//! 2. **Nested shard locks.** Acquiring a second lock while a guard
//!    from an earlier acquisition is still live is a lock-ordering /
//!    deadlock hazard (`RwLock` read-then-write on the same shard
//!    self-deadlocks under a waiting writer).
//! 3. **Guard held across I/O.** Socket and stream calls under a live
//!    guard turn a nanosecond critical section into a
//!    network-round-trip one; serialize the data out of the guard
//!    first.
//!
//! Guard liveness follows the block tree (v3 re-derived it from brace
//! counting): a `let`-bound guard lives until its enclosing block
//! closes (or an explicit `drop(name)`), an unbound temporary dies at
//! the end of its statement. Lock acquisition is recognized as the
//! repo's `read_lock(` / `write_lock(` helpers or argument-less
//! `.read()` / `.write()` method calls — `.write(buf)` on an
//! `io::Write` sink has arguments and is not a lock.

use super::FileInput;
use crate::ast::{Ast, BlockId, Span, StmtKind};
use crate::lexer::{TokKind, Token};
use crate::resolve::fn_annotated;
use crate::{Diagnostic, Rule};

/// Stream/socket methods that mean "doing I/O right now" when called
/// with a guard live. Channel `send`/`recv` are deliberately absent
/// (std mpsc sends don't block).
const IO_METHODS: [&str; 10] = [
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "accept",
    "send_to",
    "recv_from",
];

/// Socket types whose very mention in a body is I/O-adjacent.
const SOCKET_TYPES: [&str; 3] = ["TcpStream", "TcpListener", "UdpSocket"];

struct Guard {
    /// Binding name when `let`-bound; `None` for a temporary.
    name: Option<String>,
    /// Block depth at acquisition (body entry is depth 1).
    depth: i64,
    /// 1-based line of the acquisition, for messages.
    line: usize,
}

/// If `toks[k]` is a lock acquisition, returns `(is_write, line)`.
pub(crate) fn acquisition_at(toks: &[&Token<'_>], k: usize) -> Option<(bool, usize)> {
    let t = toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text {
        "read_lock" | "write_lock" if toks.get(k + 1).is_some_and(|n| n.text == "(") => {
            Some((t.text == "write_lock", t.line))
        }
        "read" | "write"
            if k > 0
                && toks[k - 1].text == "."
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
                && toks.get(k + 2).is_some_and(|n| n.text == ")") =>
        {
            Some((t.text == "write", t.line))
        }
        _ => None,
    }
}

/// Index one past the `)` matching the `(` at `toks[open]`.
pub(crate) fn after_call(toks: &[&Token<'_>], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
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

/// If the acquisition whose argument list opens at `toks[open]` is the
/// whole initializer of a `let` (the guard itself is what gets bound,
/// not a value read through it — `let g = read_lock(s);` yes,
/// `let n = read_lock(s).len();` no), returns the binding name.
/// `?` and trailing `.unwrap()`/`.expect(…)` are transparent.
pub(crate) fn binding_name(toks: &[&Token<'_>], k: usize, open: usize) -> Option<String> {
    let mut e = after_call(toks, open);
    loop {
        match toks.get(e).map(|t| t.text) {
            Some("?") => e += 1,
            Some(".")
                if toks.get(e + 1).is_some_and(|t| matches!(t.text, "unwrap" | "expect"))
                    && toks.get(e + 2).is_some_and(|t| t.text == "(") =>
            {
                e = after_call(toks, e + 2);
            }
            _ => break,
        }
    }
    if toks.get(e).map(|t| t.text) != Some(";") {
        return None; // part of a larger expression: the guard is a temporary
    }
    let mut j = k;
    while j > 0 {
        j -= 1;
        match toks[j].text {
            ";" | "{" | "}" => return None,
            "let" if toks[j].kind == TokKind::Ident => {
                let mut n = j + 1;
                while toks.get(n).is_some_and(|t| t.text == "mut") {
                    n += 1;
                }
                return toks
                    .get(n)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.to_string());
            }
            _ => {}
        }
        if k - j > 48 {
            return None; // statement-start not found nearby; treat as temporary
        }
    }
    None
}

/// If `toks[k]` begins an I/O mention, returns a short description.
pub(crate) fn io_at(toks: &[&Token<'_>], k: usize) -> Option<String> {
    let t = toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    if SOCKET_TYPES.contains(&t.text) {
        return Some(format!("`{}`", t.text));
    }
    if t.text == "io"
        && toks.get(k + 1).is_some_and(|n| n.text == ":")
        && toks.get(k + 2).is_some_and(|n| n.text == ":")
    {
        // `io::Error` / `io::ErrorKind` / `io::Result` are value and
        // type plumbing, not I/O being performed.
        let after = toks.get(k + 3).map(|n| n.text).unwrap_or("");
        if !matches!(after, "Error" | "ErrorKind" | "Result") {
            return Some(format!("`io::{after}`"));
        }
        return None;
    }
    if IO_METHODS.contains(&t.text)
        && k > 0
        && toks[k - 1].text == "."
        && toks.get(k + 1).is_some_and(|n| n.text == "(")
    {
        return Some(format!("`.{}(`", t.text));
    }
    None
}

struct Walker<'t, 'a, 'i> {
    input: &'i FileInput<'a>,
    toks: &'t [&'t Token<'a>],
    ast: &'t Ast,
    emit: bool,
    read_path: bool,
    guards: Vec<Guard>,
    depth: i64,
    last_io_line: usize,
    diags: Vec<Diagnostic>,
}

impl Walker<'_, '_, '_> {
    fn walk_block(&mut self, b: BlockId) {
        self.depth += 1;
        let ast = self.ast;
        for stmt in &ast.blocks[b].stmts {
            let mut nested: Vec<BlockId> = Vec::new();
            match &stmt.kind {
                StmtKind::Item => continue, // nested fns are walked on their own
                StmtKind::Let { init: Some(e), .. } | StmtKind::Expr(e) => {
                    self.ast.blocks_of_expr(*e, &mut nested);
                }
                StmtKind::Let { .. } => {}
            }
            nested.sort_by_key(|&nb| self.ast.blocks[nb].open);
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
        while k < span.1.min(self.toks.len()) {
            if ni < nested.len() && self.ast.blocks[nested[ni]].open == k {
                let close = self.ast.blocks[nested[ni]].close;
                self.walk_block(nested[ni]);
                ni += 1;
                k = close + 1;
                continue;
            }
            let t = self.toks[k];
            if t.text == "drop"
                && t.kind == TokKind::Ident
                && self.toks.get(k + 1).is_some_and(|n| n.text == "(")
                && self.toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && self.toks.get(k + 3).is_some_and(|n| n.text == ")")
            {
                let name = self.toks[k + 2].text;
                self.guards.retain(|g| g.name.as_deref() != Some(name));
                k += 4;
                continue;
            }
            if let Some((is_write, line)) = acquisition_at(self.toks, k) {
                let suppressed = !self.emit || self.input.allowed(line - 1, Rule::LockDiscipline);
                if is_write && self.read_path && !suppressed {
                    self.diags.push(Diagnostic::spanned(
                        self.input.rel,
                        line,
                        t.col,
                        t.col + t.text.len(),
                        Rule::LockDiscipline,
                        "write lock acquired in a `modelcheck: read-path` function — \
                         read paths must stay read-only"
                            .to_string(),
                    ));
                }
                if let Some(live) = self.guards.first() {
                    if !suppressed {
                        self.diags.push(Diagnostic::spanned(
                            self.input.rel,
                            line,
                            t.col,
                            t.col + t.text.len(),
                            Rule::LockDiscipline,
                            format!(
                                "second shard lock acquired while the guard from line {} \
                                 is still live — lock ordering / self-deadlock hazard; \
                                 close the first guard's scope or `drop` it first",
                                live.line
                            ),
                        ));
                    }
                }
                // Both acquisition forms have their `(` right after `toks[k]`.
                self.guards.push(Guard {
                    name: binding_name(self.toks, k, k + 1),
                    depth: self.depth,
                    line,
                });
            } else if !self.guards.is_empty() && t.line != self.last_io_line {
                if let Some(what) = io_at(self.toks, k) {
                    self.last_io_line = t.line;
                    let suppressed =
                        !self.emit || self.input.allowed(t.line - 1, Rule::LockDiscipline);
                    if !suppressed {
                        let live = &self.guards[0];
                        self.diags.push(Diagnostic::spanned(
                            self.input.rel,
                            t.line,
                            t.col,
                            t.col + t.text.len(),
                            Rule::LockDiscipline,
                            format!(
                                "{what} while the lock guard from line {} is live — \
                                 do the I/O outside the critical section",
                                live.line
                            ),
                        ));
                    }
                }
            }
            k += 1;
        }
    }
}

/// Runs the lock-discipline rules over every function body.
pub fn run(input: &FileInput<'_>, toks: &[&Token<'_>], ast: &Ast) -> Vec<Diagnostic> {
    if !input.scope.lock_discipline {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for f in &ast.fns {
        let Some(body) = f.body else { continue };
        let mut w = Walker {
            input,
            toks,
            ast,
            emit: !input.in_test(f.line),
            read_path: fn_annotated(input, f.line, "modelcheck: read-path"),
            guards: Vec::new(),
            depth: 0,
            last_io_line: 0,
            diags: Vec::new(),
        };
        w.walk_block(body);
        diags.append(&mut w.diags);
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::FileScope;

    fn scan(body: &str) -> Vec<Diagnostic> {
        let (input, diags) = FileInput::build("x.rs", body, FileScope::ALL);
        assert!(diags.is_empty(), "{diags:?}");
        let toks = input.code_tokens();
        let ast = parse(&toks).expect("parses");
        run(&input, &toks, &ast)
    }

    #[test]
    fn write_in_read_path_is_flagged() {
        let src = "// modelcheck: read-path\n\
                   fn machine_count(&self) -> usize {\n\
                   \x20   let g = write_lock(&self.shards[0]);\n\
                   \x20   g.len()\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("read-path"));
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn read_in_read_path_is_fine() {
        let src = "// modelcheck: read-path\n\
                   fn count(&self) -> usize { let g = read_lock(&self.shards[0]); g.len() }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn nested_acquisition_is_flagged_even_via_method_form() {
        let src = "fn cross(&self) {\n\
                   \x20   let a = self.shards[0].read();\n\
                   \x20   let b = self.shards[1].read();\n\
                   \x20   use_both(a, b);\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("line 2"));
    }

    #[test]
    fn sequential_scoped_guards_are_fine() {
        // The real `with_profile` shape: read guard in an inner block,
        // write lock only after the block closes.
        let src = "fn with_profile(&self) {\n\
                   {\n\
                   \x20   let guard = read_lock(shard);\n\
                   \x20   if let Some(p) = guard.get() { return p; }\n\
                   }\n\
                   let mut guard = write_lock(shard);\n\
                   guard.insert();\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "fn f(&self) {\n\
                   \x20   let a = read_lock(s0);\n\
                   \x20   drop(a);\n\
                   \x20   let b = write_lock(s1);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) {\n\
                   \x20   let n = read_lock(s0).len();\n\
                   \x20   let b = read_lock(s1);\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn guard_across_io_is_flagged() {
        let src = "fn handle(&self, out: &mut TcpStream) {\n\
                   \x20   let g = read_lock(shard);\n\
                   \x20   out.write_all(g.bytes()).ok();\n\
                   }\n";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("write_all"), "{d:?}");
    }

    #[test]
    fn io_after_guard_scope_closes_is_fine() {
        let src = "fn handle(&self, out: &mut W) {\n\
                   \x20   let bytes = { let g = read_lock(shard); g.bytes() };\n\
                   \x20   out.write_all(&bytes).ok();\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn write_with_arguments_is_not_a_lock() {
        let src = "fn sink(&self, out: &mut W) { out.write(buf).ok(); out.write(b).ok(); }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn io_error_plumbing_is_not_io() {
        let src = "fn f(&self) -> io::Result<()> {\n\
                   \x20   let g = read_lock(shard);\n\
                   \x20   Err(io::Error::new(io::ErrorKind::Other, \"x\"))\n\
                   }\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn allow_suppresses_and_tests_are_exempt() {
        let allowed = "fn f(&self) {\n\
                       \x20   let a = read_lock(s0);\n\
                       \x20   // modelcheck-allow: lock-discipline — ordered by shard index\n\
                       \x20   let b = read_lock(s1);\n\
                       }\n";
        assert!(scan(allowed).is_empty());
        let tested = "#[cfg(test)]\nmod t {\n\
                      fn f() { let a = read_lock(s0); let b = read_lock(s1); }\n\
                      }\n";
        assert!(scan(tested).is_empty());
    }
}
