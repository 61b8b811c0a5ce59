//! Repo-specific static analysis for the contention-model workspace.
//!
//! `modelcheck` is a standalone, no-network lint pass that enforces
//! rules the compiler cannot express but the model's correctness
//! depends on. v4 is an *AST-based analyzer*: every file is tokenized
//! by a hand-rolled Rust lexer ([`lexer`] — raw/normal strings, char
//! literals vs lifetimes, nested block comments, token spans; still
//! zero dependencies), parsed by a tolerant recursive-descent parser
//! ([`ast`] — items, fns, blocks, let-bindings, calls, if/match arms,
//! all with token spans), and a set of passes ([`passes`]) walks the
//! tree: structural rules (lock discipline, atomics) as scope-tree
//! walks, the wire-taint rule as a per-function dataflow over `let`
//! bindings, and the event-loop purity rule as a crate-level
//! reachability check ([`resolve`] holds the shared name/annotation
//! helpers). Cheap textual rules stay on the line/token path, and a
//! cross-file pass checks the wire protocol for drift between
//! `proto.rs`, `binproto.rs`, `gateway.rs`, and the DESIGN.md protocol
//! table.
//!
//! **Crates opt in via a root pragma.** Each crate declares the rules
//! it holds itself to with a doc line in its crate root (`src/lib.rs`,
//! or `src/main.rs` for pure binaries):
//!
//! ```text
//! //! modelcheck: no-panic, lossy-cast, missing-docs
//! ```
//!
//! [`scan_workspace`] discovers every `Cargo.toml` under the root
//! (skipping `vendor/`, `target/`, `.git/`, `fixtures/`, and the
//! benchmark's build directory `.bench_build/`), reads the
//! crate root's pragma, and applies the named rules to that crate's
//! `src/` tree. A crate with no pragma gets only the global rules. A
//! pragma naming an unknown rule is itself a diagnostic (`pragma`), so
//! typos fail the build instead of silently disabling a rule.
//!
//! | rule | family | what it rejects |
//! |------|--------|-----------------|
//! | `no-panic` | style | `.unwrap()`, `.expect(`, `panic!` in model code |
//! | `naked-f64` | style | `f64`/`f32` in a `pub fn` signature (`units.rs` exempt) |
//! | `lossy-cast` | style | `as f64`/`as f32` and visible float → integer casts |
//! | `no-todo-dbg` | style | `todo!` / `dbg!` anywhere scanned, tests included |
//! | `missing-docs` | style | a public item with no doc comment |
//! | `lock-discipline` | concurrency | `write()` in a `// modelcheck: read-path` fn; a second shard lock while a guard is live; a guard held across I/O |
//! | `atomics` | concurrency | `SeqCst`/`AcqRel` without a justification; `store(load(..))` read-modify-write of an atomic |
//! | `event-loop` | concurrency | a blocking call (`.lock(`, `write_lock(`, `sleep`, `read_to_end`, `write_all`, stdio macros) in a fn reachable from a `// modelcheck: event-loop` entry point, transitively through the workspace call graph |
//! | `lock-order` | concurrency | a cycle in the workspace lock-order graph (including orders split across functions), or a guard held across a call whose callee (transitively) blocks on I/O |
//! | `wire-taint` | dataflow | a wire-decoded value reaching `with_capacity`/`reserve`/`resize`/`vec![_; n]`, a slice index, or a loop bound without a dominating bounds check — in the decoding function or through any resolved call chain |
//! | `float-env` | numeric | `to_bits`/`from_bits`/`EPSILON` outside `units.rs` |
//! | `protocol-drift` | protocol | a wire kind present in `proto.rs`, `binproto.rs`, `gateway.rs`, or the DESIGN.md table but missing from another |
//! | `pragma` | config | a `modelcheck:` pragma naming an unknown rule |
//! | `lex` | lexer | a file the lexer cannot tokenize |
//! | `parse` | parser | a file with mismatched delimiters the parser cannot structure |
//!
//! A diagnostic on line *n* is suppressed by `// modelcheck-allow: <rule>`
//! on line *n* or anywhere in the contiguous comment block directly
//! above it (justifications are encouraged to take several lines); the
//! comment is expected to say *why* the exception is sound. Code under
//! `#[cfg(test)]` is exempt from every rule except `no-todo-dbg` —
//! which also covers crates' `tests/`, `benches/`, and `examples/`
//! trees, not just `src/`.
//!
//! **Baseline.** Findings present at adoption live in a committed
//! `modelcheck.baseline` file (`file:line:rule`, one per line): they
//! are reported as warnings, while any finding *not* in the baseline
//! is an error. `--fix-baseline` regenerates the file; see [`baseline`].
//!
//! [`Seconds`]: ../contention_model/units/struct.Seconds.html

#![warn(missing_docs)]

pub mod ast;
pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod passes;
pub mod resolve;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The rules enforced by the pass. Names are what crate-root pragmas and
/// `modelcheck-allow` comments reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` / `panic!` in pragma'd crate sources.
    NoPanic,
    /// Bare `f64`/`f32` in a `pub fn` signature of a pragma'd crate.
    NakedF64,
    /// Lossy `as` casts between integer and float types.
    LossyCast,
    /// `todo!` / `dbg!` anywhere.
    NoTodoDbg,
    /// Undocumented public item in a pragma'd crate.
    MissingDocs,
    /// Shard-lock discipline: write locks in read paths, nested lock
    /// acquisition, guards held across I/O.
    LockDiscipline,
    /// Atomics ordering hygiene: unjustified `SeqCst`/`AcqRel`,
    /// non-atomic read-modify-write of relaxed counters.
    Atomics,
    /// Wire-taint dataflow: a value decoded from the wire used as an
    /// allocation size, slice index, or loop bound without a dominating
    /// bounds check.
    WireTaint,
    /// Event-loop purity: a blocking call in a fn reachable from a
    /// `// modelcheck: event-loop` entry point.
    EventLoop,
    /// Lock-order hygiene: cycles in the workspace lock-order graph,
    /// and guards held across calls into (transitively) blocking code.
    LockOrder,
    /// Bit-level float access (`to_bits`/`from_bits`/`EPSILON`) outside
    /// `units.rs`.
    FloatEnv,
    /// Wire-protocol drift between `proto.rs`, `binproto.rs`,
    /// `gateway.rs`, and the DESIGN.md protocol table.
    ProtocolDrift,
    /// A crate-root `modelcheck:` pragma naming an unknown rule.
    Pragma,
    /// A file the lexer failed to tokenize.
    Lex,
    /// A file the parser could not structure (mismatched delimiters).
    Parse,
}

impl Rule {
    /// Every rule, in the order `--list-rules` prints them.
    pub const ALL: [Rule; 15] = [
        Rule::NoPanic,
        Rule::NakedF64,
        Rule::LossyCast,
        Rule::NoTodoDbg,
        Rule::MissingDocs,
        Rule::LockDiscipline,
        Rule::Atomics,
        Rule::EventLoop,
        Rule::LockOrder,
        Rule::WireTaint,
        Rule::FloatEnv,
        Rule::ProtocolDrift,
        Rule::Pragma,
        Rule::Lex,
        Rule::Parse,
    ];

    /// The rule's name as written in pragmas and `modelcheck-allow`
    /// comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NakedF64 => "naked-f64",
            Rule::LossyCast => "lossy-cast",
            Rule::NoTodoDbg => "no-todo-dbg",
            Rule::MissingDocs => "missing-docs",
            Rule::LockDiscipline => "lock-discipline",
            Rule::Atomics => "atomics",
            Rule::WireTaint => "wire-taint",
            Rule::EventLoop => "event-loop",
            Rule::LockOrder => "lock-order",
            Rule::FloatEnv => "float-env",
            Rule::ProtocolDrift => "protocol-drift",
            Rule::Pragma => "pragma",
            Rule::Lex => "lex",
            Rule::Parse => "parse",
        }
    }

    /// One-line description, as printed by `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::NoPanic => "`.unwrap()`, `.expect(`, `panic!` in model code",
            Rule::NakedF64 => "bare `f64`/`f32` in a `pub fn` signature (units.rs exempt)",
            Rule::LossyCast => "lossy `as` casts between integer and float types",
            // Spelled via concat! so the textual pass does not flag
            // its own description.
            Rule::NoTodoDbg => concat!("`to", "do!` / `d", "bg!` anywhere, tests included"),
            Rule::MissingDocs => "a public item with no doc comment",
            Rule::LockDiscipline => {
                "write locks in read paths, nested shard locks, guards held across I/O"
            }
            Rule::Atomics => "unjustified `SeqCst`/`AcqRel`; `store(load(..))` read-modify-write",
            Rule::WireTaint => {
                "wire-decoded value used as allocation size, index, or loop bound unchecked"
            }
            Rule::EventLoop => {
                "blocking call in a fn reachable from a `modelcheck: event-loop` entry point"
            }
            Rule::LockOrder => {
                "lock-order cycle across functions, or a guard held across a blocking callee"
            }
            Rule::FloatEnv => "`to_bits`/`from_bits`/`EPSILON` outside units.rs",
            Rule::ProtocolDrift => {
                "wire kind present in proto.rs, binproto.rs, gateway.rs, or DESIGN.md but missing elsewhere"
            }
            Rule::Pragma => "a crate-root `modelcheck:` pragma naming an unknown rule",
            Rule::Lex => "a file the lexer cannot tokenize",
            Rule::Parse => "a file with mismatched delimiters the parser cannot structure",
        }
    }

    /// How a crate opts in: the pragma spelling for opt-in rules,
    /// `None` for rules that always run.
    pub fn pragma_spelling(self) -> Option<&'static str> {
        match self {
            Rule::NoPanic
            | Rule::NakedF64
            | Rule::LossyCast
            | Rule::MissingDocs
            | Rule::LockDiscipline
            | Rule::Atomics
            | Rule::WireTaint
            | Rule::EventLoop
            | Rule::LockOrder
            | Rule::FloatEnv => Some(self.name()),
            Rule::NoTodoDbg | Rule::ProtocolDrift | Rule::Pragma | Rule::Lex | Rule::Parse => None,
        }
    }

    /// The rule family reported in `--json` output: passes group into
    /// families so tooling can gate on whole categories.
    pub fn family(self) -> &'static str {
        match self {
            Rule::NoPanic
            | Rule::NakedF64
            | Rule::LossyCast
            | Rule::NoTodoDbg
            | Rule::MissingDocs => "style",
            Rule::LockDiscipline | Rule::Atomics | Rule::EventLoop | Rule::LockOrder => {
                "concurrency"
            }
            Rule::WireTaint => "dataflow",
            Rule::FloatEnv => "numeric",
            Rule::ProtocolDrift => "protocol",
            Rule::Pragma => "config",
            Rule::Lex => "lexer",
            Rule::Parse => "parser",
        }
    }
}

/// One finding: a rule violated at a `file:line:col` span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column where the finding starts.
    pub col: usize,
    /// 1-based byte column one past the finding's end (`col` when the
    /// span is unknown).
    pub end_col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// True when the finding matches a committed baseline entry (a
    /// warning at adoption, not an error). Set by [`baseline::mark`].
    pub baselined: bool,
}

impl Diagnostic {
    /// A diagnostic with an explicit column span (1-based, end
    /// exclusive).
    pub fn spanned(
        file: &str,
        line: usize,
        col: usize,
        end_col: usize,
        rule: Rule,
        message: String,
    ) -> Self {
        Diagnostic { file: file.to_string(), line, col, end_col, rule, message, baselined: false }
    }

    /// A diagnostic covering an unknown span (column 1).
    pub fn at_line(file: &str, line: usize, rule: Rule, message: String) -> Self {
        Diagnostic::spanned(file, line, 1, 1, rule, message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

impl Diagnostic {
    /// The finding as one JSON object (hand-rolled: the pass must work
    /// with no dependencies at all).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"end_col\":{},\"rule\":\"{}\",\
             \"family\":\"{}\",\"baselined\":{},\"message\":\"{}\"}}",
            escape_json(&self.file),
            self.line,
            self.col,
            self.end_col,
            self.rule.name(),
            self.rule.family(),
            self.baselined,
            escape_json(&self.message)
        )
    }
}

/// Renders a full diagnostic list as a JSON array.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Which rules apply to a given file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// `no-panic` applies.
    pub no_panic: bool,
    /// `naked-f64` applies.
    pub naked_f64: bool,
    /// `lossy-cast` applies.
    pub lossy_cast: bool,
    /// `missing-docs` applies.
    pub missing_docs: bool,
    /// `lock-discipline` applies.
    pub lock_discipline: bool,
    /// `atomics` applies.
    pub atomics: bool,
    /// `wire-taint` applies.
    pub wire_taint: bool,
    /// `event-loop` applies.
    pub event_loop: bool,
    /// `lock-order` applies.
    pub lock_order: bool,
    /// `float-env` applies.
    pub float_env: bool,
}

impl FileScope {
    /// No opt-in rules (only the global `no-todo-dbg` fires).
    pub const NONE: FileScope = FileScope {
        no_panic: false,
        naked_f64: false,
        lossy_cast: false,
        missing_docs: false,
        lock_discipline: false,
        atomics: false,
        wire_taint: false,
        event_loop: false,
        lock_order: false,
        float_env: false,
    };

    /// Every opt-in rule enabled.
    pub const ALL: FileScope = FileScope {
        no_panic: true,
        naked_f64: true,
        lossy_cast: true,
        missing_docs: true,
        lock_discipline: true,
        atomics: true,
        wire_taint: true,
        event_loop: true,
        lock_order: true,
        float_env: true,
    };

    /// Builds a scope from pragma rule names; unknown names are returned
    /// for the caller to report. `no-todo-dbg` is accepted but redundant
    /// (it is global).
    pub fn from_rule_names<'a>(
        names: impl IntoIterator<Item = &'a str>,
    ) -> (FileScope, Vec<String>) {
        let mut scope = FileScope::NONE;
        let mut unknown = Vec::new();
        for name in names {
            match name {
                "no-panic" => scope.no_panic = true,
                "naked-f64" => scope.naked_f64 = true,
                "lossy-cast" => scope.lossy_cast = true,
                "missing-docs" => scope.missing_docs = true,
                "lock-discipline" => scope.lock_discipline = true,
                "atomics" => scope.atomics = true,
                "wire-taint" => scope.wire_taint = true,
                "event-loop" => scope.event_loop = true,
                "lock-order" => scope.lock_order = true,
                "float-env" => scope.float_env = true,
                "no-todo-dbg" => {}
                other => unknown.push(other.to_string()),
            }
        }
        (scope, unknown)
    }

    /// Per-file adjustment of a crate-level scope: the units module is
    /// the one place bare floats *are* the API and bit-level float
    /// access is legitimate, so `naked-f64` and `float-env` are exempt
    /// there.
    pub fn for_file(self, rel: &str) -> FileScope {
        if rel.ends_with("/units.rs") || rel == "units.rs" {
            FileScope { naked_f64: false, float_env: false, ..self }
        } else {
            self
        }
    }
}

/// Extracts a crate root's `modelcheck:` pragma: the first inner-doc
/// line of the form `//! modelcheck: rule, rule, …`. Returns the
/// 0-based line index and the listed names.
pub fn parse_pragma(text: &str) -> Option<(usize, Vec<String>)> {
    for (i, line) in text.lines().enumerate() {
        let Some(rest) = line.trim_start().strip_prefix("//!") else { continue };
        let Some(list) = rest.trim_start().strip_prefix("modelcheck:") else { continue };
        let names =
            list.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        return Some((i, names));
    }
    None
}

/// Scans one file's text under an explicit rule scope; `rel` is the
/// workspace-relative path used in diagnostics. ([`scan_workspace`]
/// derives the scope from the owning crate's root pragma.) Runs the
/// per-file passes (textual, numeric, lock discipline, atomics) and
/// the graph passes (wire-taint, lock-order, event-loop purity) over a
/// one-file call graph, so a lone file behaves exactly like a one-file
/// workspace.
pub fn scan_file(rel: &str, text: &str, scope: FileScope) -> Vec<Diagnostic> {
    let scope = scope.for_file(rel);
    let (input, mut diags) = passes::FileInput::build(rel, text, scope);
    diags.extend(passes::textual::run(&input));
    diags.extend(passes::float_env::run(&input));
    if input.tokens.is_empty() {
        return diags; // lexing failed: the AST passes cannot run
    }
    let toks = input.code_tokens();
    match ast::parse(&toks) {
        Ok(tree) => {
            diags.extend(passes::lock::run(&input, &toks, &tree));
            diags.extend(passes::atomics::run(&input, &toks, &tree));
            let files =
                [graph::FileCtx { input: &input, toks: &toks, ast: &tree, crate_dir: None }];
            let g = graph::CallGraph::build(&files);
            diags.extend(run_graph_passes(&files, &g, false).0);
        }
        Err(e) => diags.push(Diagnostic::spanned(
            rel,
            e.line,
            e.col,
            e.col + 1,
            Rule::Parse,
            format!("file does not parse ({}); structural passes skipped", e.message),
        )),
    }
    diags
}

/// Runs the workspace graph passes (interprocedural wire-taint,
/// lock-order, transitive event-loop purity) over the parsed files;
/// returns the diagnostics plus, when asked, the serialized
/// per-function summaries.
fn run_graph_passes(
    files: &[graph::FileCtx<'_, '_>],
    g: &graph::CallGraph,
    want_summaries: bool,
) -> (Vec<Diagnostic>, Vec<String>) {
    let taint = passes::taint::summarize(files, g);
    let locks = passes::lock_order::harvest(files, g);
    let mut diags = passes::taint::emit(files, g, &taint);
    diags.extend(passes::lock_order::emit(files, g, &locks));
    diags.extend(passes::event_loop::run_workspace(files, g));
    let summaries =
        if want_summaries { render_summaries(files, g, &taint, &locks) } else { Vec::new() };
    (diags, summaries)
}

/// Serializes the per-function summaries, one line per graph node in
/// (file, line) order: taint flow (`ret=`, `sinks=`), lock behavior
/// (`locks=`, `held=`, `returns-lock=`), and the first blocking site
/// (`blocking=`). `-` marks an empty section. The format is consumed
/// by `--dump-summaries` and pinned by the CLI tests against
/// `tests/fixtures/ws.summaries`.
fn render_summaries(
    files: &[graph::FileCtx<'_, '_>],
    g: &graph::CallGraph,
    taint: &[passes::taint::FnTaint],
    locks: &[passes::lock_order::FnLocks],
) -> Vec<String> {
    let mut lines = Vec::with_capacity(g.nodes.len());
    for (id, n) in g.nodes.iter().enumerate() {
        let f = &files[n.file];
        let ret = passes::taint::render_labels(taint[id].ret, &n.params);
        let sinks = if taint[id].sinks.is_empty() {
            "-".to_string()
        } else {
            taint[id]
                .sinks
                .iter()
                .map(|s| {
                    format!(
                        "p{}({}):{}@{}",
                        s.param,
                        n.params.get(s.param).map(String::as_str).unwrap_or("?"),
                        s.what,
                        s.trace.join("->")
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let acq = if locks[id].acquires.is_empty() {
            "-".to_string()
        } else {
            locks[id]
                .acquires
                .iter()
                .map(|a| format!("{}:{}@{}", a.class, if a.write { "w" } else { "r" }, a.line))
                .collect::<Vec<_>>()
                .join(",")
        };
        let held = if locks[id].held_calls.is_empty() {
            "-".to_string()
        } else {
            locks[id]
                .held_calls
                .iter()
                .map(|h| format!("{}->{}@{}", h.class, g.nodes[h.callee].name, h.line))
                .collect::<Vec<_>>()
                .join(",")
        };
        let returns_lock = locks[id].returns_lock.as_deref().unwrap_or("-");
        let blocking = locks[id]
            .blocking
            .as_ref()
            .map_or("-".to_string(), |(what, line)| format!("{what}@{line}"));
        lines.push(format!(
            "{}:{} fn {}({}) ret={} sinks={} locks={} held={} returns-lock={} blocking={}",
            f.input.rel,
            n.line,
            n.name,
            n.params.join(","),
            ret,
            sinks,
            acq,
            held,
            returns_lock,
            blocking,
        ));
    }
    lines
}

/// Directory names never descended into.
const SKIP_DIRS: [&str; 5] = ["vendor", "target", ".git", "fixtures", ".bench_build"];

/// Walks every file under `dir` (skip-dirs excluded) in sorted order.
/// Only directories found below `dir` are matched against the skip
/// list, so a `dir` whose own path runs through one is still walked.
pub fn walk_by<F: FnMut(&Path)>(dir: &Path, visit: &mut F) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk_by(&path, visit);
            }
        } else {
            visit(&path);
        }
    }
}

/// A discovered crate: its directory and the rules its root opted into.
#[derive(Debug, Clone)]
pub struct CrateScope {
    /// Crate directory, workspace-relative with `/` separators (empty
    /// for a package rooted at the workspace root).
    pub dir: String,
    /// Rules enabled by the crate root's pragma.
    pub scope: FileScope,
}

fn rel_of(path: &Path, root: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Discovers every crate under `root` (any directory with a
/// `Cargo.toml`, skip-dirs excluded) and reads its root pragma from
/// `src/lib.rs` (or `src/main.rs`). Returns the per-crate scopes plus
/// diagnostics for pragmas naming unknown rules.
pub fn discover_crates(root: &Path) -> (Vec<CrateScope>, Vec<Diagnostic>) {
    let mut manifest_dirs = Vec::new();
    walk_by(root, &mut |path| {
        if path.file_name().is_some_and(|n| n == "Cargo.toml") {
            if let Some(dir) = path.parent() {
                manifest_dirs.push(dir.to_path_buf());
            }
        }
    });
    let mut crates = Vec::new();
    let mut diags = Vec::new();
    for dir in manifest_dirs {
        let Some((crate_root, text)) = ["lib.rs", "main.rs"]
            .iter()
            .map(|f| dir.join("src").join(f))
            .find_map(|p| fs::read_to_string(&p).ok().map(|t| (p, t)))
        else {
            continue;
        };
        let Some((line, names)) = parse_pragma(&text) else {
            crates.push(CrateScope { dir: rel_of(&dir, root), scope: FileScope::NONE });
            continue;
        };
        let (scope, unknown) = FileScope::from_rule_names(names.iter().map(String::as_str));
        for name in unknown {
            diags.push(Diagnostic::at_line(
                &rel_of(&crate_root, root),
                line + 1,
                Rule::Pragma,
                format!("unknown rule {name:?} in modelcheck pragma"),
            ));
        }
        crates.push(CrateScope { dir: rel_of(&dir, root), scope });
    }
    (crates, diags)
}

/// Aggregate size/shape numbers from a workspace scan, recorded in
/// `BENCH_model_eval.json` so analyzer growth is tracked across PRs.
#[derive(Debug, Clone, Copy)]
pub struct ScanStats {
    /// `.rs` files scanned.
    pub files: usize,
    /// Call-graph nodes (function definitions with bodies).
    pub graph_nodes: usize,
    /// Call-graph edges (resolved call sites).
    pub graph_edges: usize,
    /// Non-macro call sites left unresolved because their name has two
    /// or more definitions in the scope resolution picked.
    pub ambiguous_calls: usize,
    /// Lines carrying a `modelcheck-allow:` grant.
    pub allow_sites: usize,
}

/// Scans every `.rs` file under `root` (skipping `vendor/`, `target/`,
/// `.git/`, `fixtures/`, and `.bench_build/`), scoping each file by its
/// owning crate's root pragma, runs the cross-file protocol-drift pass,
/// and returns all diagnostics ordered by path and line. Baseline status is *not*
/// applied here — see [`baseline::mark`].
pub fn scan_workspace(root: &Path) -> Vec<Diagnostic> {
    scan_workspace_with_stats(root).0
}

/// [`scan_workspace`] plus the call-graph size statistics.
pub fn scan_workspace_with_stats(root: &Path) -> (Vec<Diagnostic>, ScanStats) {
    let (diags, stats, _) = analyze(root, false);
    (diags, stats)
}

/// Scans the workspace and returns the serialized per-function
/// summaries (taint flow, lock behavior, blocking sites) instead of
/// diagnostics; backs the CLI's `--dump-summaries`.
pub fn dump_summaries(root: &Path) -> String {
    let mut out = analyze(root, true).2.join("\n");
    out.push('\n');
    out
}

/// The workspace pipeline: discover crates, lex + parse every file
/// once, run the per-file passes from the shared inputs, build the
/// workspace call graph over everything that parsed, and run the graph
/// passes on top.
fn analyze(root: &Path, want_summaries: bool) -> (Vec<Diagnostic>, ScanStats, Vec<String>) {
    let (crates, mut diags) = discover_crates(root);
    let mut files = Vec::new();
    walk_by(root, &mut |path| {
        if path.extension().is_some_and(|e| e == "rs") {
            files.push(path.to_path_buf());
        }
    });
    struct Loaded {
        rel: String,
        text: String,
        scope: FileScope,
        crate_dir: Option<String>,
    }
    let mut loaded = Vec::new();
    for path in files {
        let rel = rel_of(&path, root);
        // The owning crate is the one whose src/ tree contains the file;
        // the longest directory prefix wins for nested layouts. Files
        // outside any src/ tree (tests/, benches/, examples/) get the
        // global rules only.
        let owner = crates
            .iter()
            .filter(|c| {
                if c.dir.is_empty() {
                    rel.starts_with("src/")
                } else {
                    rel.starts_with(&format!("{}/src/", c.dir))
                }
            })
            .max_by_key(|c| c.dir.len());
        let Ok(text) = fs::read_to_string(&path) else { continue };
        loaded.push(Loaded {
            rel,
            text,
            scope: owner.map_or(FileScope::NONE, |c| c.scope),
            crate_dir: owner.map(|c| c.dir.clone()),
        });
    }
    // Lex and parse each file exactly once; every pass below reads
    // these shared inputs.
    let mut inputs: Vec<passes::FileInput<'_>> = Vec::with_capacity(loaded.len());
    for l in &loaded {
        let (input, d) = passes::FileInput::build(&l.rel, &l.text, l.scope.for_file(&l.rel));
        diags.extend(d);
        inputs.push(input);
    }
    let toks: Vec<Vec<&lexer::Token<'_>>> = inputs.iter().map(|i| i.code_tokens()).collect();
    let mut asts: Vec<Option<ast::Ast>> = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        if input.tokens.is_empty() {
            asts.push(None); // lexing failed: the AST passes cannot run
            continue;
        }
        match ast::parse(&toks[i]) {
            Ok(t) => asts.push(Some(t)),
            Err(e) => {
                diags.push(Diagnostic::spanned(
                    input.rel,
                    e.line,
                    e.col,
                    e.col + 1,
                    Rule::Parse,
                    format!("file does not parse ({}); structural passes skipped", e.message),
                ));
                asts.push(None);
            }
        }
    }
    for (i, input) in inputs.iter().enumerate() {
        diags.extend(passes::textual::run(input));
        diags.extend(passes::float_env::run(input));
        if let Some(t) = &asts[i] {
            diags.extend(passes::lock::run(input, &toks[i], t));
            diags.extend(passes::atomics::run(input, &toks[i], t));
        }
    }
    // Workspace call graph over every file that parsed, then the
    // interprocedural passes.
    let ctxs: Vec<graph::FileCtx<'_, '_>> = inputs
        .iter()
        .zip(&toks)
        .zip(&asts)
        .zip(&loaded)
        .filter_map(|(((input, toks), ast), l)| {
            ast.as_ref().map(|ast| graph::FileCtx {
                input,
                toks,
                ast,
                crate_dir: l.crate_dir.as_deref(),
            })
        })
        .collect();
    let g = graph::CallGraph::build(&ctxs);
    let (gd, summaries) = run_graph_passes(&ctxs, &g, want_summaries);
    diags.extend(gd);
    diags.extend(passes::drift::check_workspace(root));
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    let stats = ScanStats {
        files: inputs.len(),
        graph_nodes: g.nodes.len(),
        graph_edges: g.edge_count(),
        ambiguous_calls: g.ambiguous_calls,
        allow_sites: inputs.iter().map(|i| i.allow_sites).sum(),
    };
    (diags, stats, summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_scan(body: &str) -> Vec<Diagnostic> {
        scan_file("crates/core/src/sample.rs", body, FileScope::ALL)
    }

    #[test]
    fn unwrap_flagged_under_scope_only() {
        let body = "fn f() { x.unwrap(); }\n";
        assert_eq!(core_scan(body).len(), 1);
        assert_eq!(core_scan(body)[0].rule, Rule::NoPanic);
        assert!(scan_file("crates/experiments/src/sample.rs", body, FileScope::NONE).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(core_scan("fn f() { x.unwrap_or(0.0); }\n").is_empty());
    }

    #[test]
    fn pragma_parses_rule_lists() {
        let text = "//! Crate docs.\n//!\n//! modelcheck: no-panic, lossy-cast\npub fn x() {}\n";
        let (line, names) = parse_pragma(text).unwrap();
        assert_eq!(line, 2);
        assert_eq!(names, vec!["no-panic".to_string(), "lossy-cast".to_string()]);
        assert_eq!(parse_pragma("//! Just docs.\n"), None);

        let (scope, unknown) = FileScope::from_rule_names(names.iter().map(String::as_str));
        assert!(scope.no_panic && scope.lossy_cast);
        assert!(!scope.naked_f64 && !scope.missing_docs);
        assert!(unknown.is_empty());
        let (_, unknown) = FileScope::from_rule_names(["no-panick"]);
        assert_eq!(unknown, vec!["no-panick".to_string()]);
    }

    #[test]
    fn new_rule_names_parse() {
        let (scope, unknown) =
            FileScope::from_rule_names(["lock-discipline", "atomics", "float-env"]);
        assert!(scope.lock_discipline && scope.atomics && scope.float_env);
        assert!(!scope.no_panic);
        assert!(unknown.is_empty());
    }

    #[test]
    fn allow_on_same_or_previous_line_suppresses() {
        let same = "fn f() { x.unwrap(); } // modelcheck-allow: no-panic — invariant\n";
        assert!(core_scan(same).is_empty());
        let above = "// modelcheck-allow: no-panic — invariant\nfn f() { x.unwrap(); }\n";
        assert!(core_scan(above).is_empty());
        let wrong_rule = "// modelcheck-allow: lossy-cast\nfn f() { x.unwrap(); }\n";
        assert_eq!(core_scan(wrong_rule).len(), 1);
        // A multi-line justification block counts as one allow…
        let block = "// modelcheck-allow: no-panic — the invariant takes\n\
                     // a couple of lines to state properly\n\
                     fn f() { x.unwrap(); }\n";
        assert!(core_scan(block).is_empty());
        // …but code between the allow and the finding breaks the block.
        let detached = "// modelcheck-allow: no-panic\nfn g() {}\nfn f() { x.unwrap(); }\n";
        assert_eq!(core_scan(detached).len(), 1);
    }

    #[test]
    fn cfg_test_blocks_are_exempt_from_panics() {
        let body = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(core_scan(body).is_empty());
    }

    #[test]
    fn closing_brace_in_a_string_does_not_end_the_test_mask() {
        let body = "#[cfg(test)]\n\
                    mod tests {\n\
                    \x20   const S: &str = \"}\";\n\
                    \x20   fn f() { x.unwrap(); }\n\
                    }\n";
        assert!(core_scan(body).is_empty(), "{:?}", core_scan(body));
    }

    #[test]
    fn opening_brace_in_a_char_does_not_extend_the_test_mask() {
        let body = "#[cfg(test)]\n\
                    mod tests {\n\
                    \x20   const C: char = '{';\n\
                    }\n\
                    fn g() { y.unwrap(); }\n";
        let d = core_scan(body);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].line), (Rule::NoPanic, 5));
    }

    #[test]
    fn naked_f64_spans_multiline_signatures() {
        let body = "pub fn f(\n    a: Seconds,\n    b: f64,\n) -> Words {\n    body\n}\n";
        let d = core_scan(body);
        assert_eq!(d.len(), 2, "{d:?}"); // naked-f64 + missing-docs
        assert!(d.iter().any(|d| d.rule == Rule::NakedF64 && d.line == 1));
    }

    #[test]
    fn units_module_is_exempt_from_naked_f64_and_float_env() {
        let body = "/// Doc.\npub fn get(&self) -> f64 { self.0.to_bits(); self.0 }\n";
        assert!(scan_file("crates/core/src/units.rs", body, FileScope::ALL).is_empty());
    }

    #[test]
    fn f64_token_does_not_match_inside_identifiers() {
        let body = "/// Doc.\npub fn f(n: u64) -> Words { f64_from_u64(n); Words::new(n) }\n";
        assert!(core_scan(body).is_empty());
    }

    #[test]
    fn lossy_casts_need_an_allow() {
        assert_eq!(core_scan("fn f(n: u64) { let x = n as f64; }\n").len(), 1);
        assert!(core_scan(
            "fn f(n: u64) { let x = n as f64; } // modelcheck-allow: lossy-cast — bounded\n"
        )
        .is_empty());
        // Visible float → int truncation.
        assert_eq!(core_scan("fn f(x: f64) { let n = x.floor() as u64; }\n").len(), 1);
        assert_eq!(core_scan("fn f() { let n = 1.5 as u64; }\n").len(), 1);
        // Int → int is not modelcheck's business.
        assert!(core_scan("fn f(n: u64) { let x = n as usize; }\n").is_empty());
    }

    #[test]
    fn todo_and_dbg_flagged_even_in_tests_and_unscoped_files() {
        let pat = concat!("to", "do!()");
        let body = format!("#[cfg(test)]\nmod tests {{\n    fn f() {{ {pat}; }}\n}}\n");
        let d = scan_file("crates/experiments/src/sample.rs", &body, FileScope::NONE);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::NoTodoDbg);
    }

    #[test]
    fn missing_docs_sees_through_attributes() {
        let documented = "/// Doc.\n#[derive(Debug)]\npub struct S;\n";
        assert!(core_scan(documented).is_empty());
        let bare = "#[derive(Debug)]\npub struct S;\n";
        assert_eq!(core_scan(bare).len(), 1);
        assert_eq!(core_scan(bare)[0].rule, Rule::MissingDocs);
        // `pub use` re-exports and restricted visibility are skipped.
        assert!(core_scan("pub use crate::units::Seconds;\n").is_empty());
        assert!(core_scan("pub(crate) fn helper() {}\n").is_empty());
    }

    #[test]
    fn prose_in_comments_is_never_flagged() {
        let body = "/// Calling `.unwrap()` here would be wrong; `panic!` too.\n\
                    pub fn f() {}\n";
        assert!(core_scan(body).is_empty());
    }

    #[test]
    fn block_comments_and_strings_are_not_code() {
        // v3 (lexer-backed comment stripping): a block comment holding
        // `.unwrap()` is prose, and `//` inside a string does not hide
        // the rest of the line.
        let block = "/* x.unwrap() would be wrong */\nfn f() {}\n";
        assert!(core_scan(block).is_empty());
        let url = "fn f() { let u = \"https://host/x\"; g.unwrap(); }\n";
        let d = core_scan(url);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::NoPanic);
    }

    #[test]
    fn diagnostics_carry_spans() {
        let d = core_scan("fn f() { x.unwrap(); }\n");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].line, d[0].col), (1, 11), "{:?}", d[0]);
        assert!(d[0].end_col > d[0].col);
    }

    #[test]
    fn json_output_escapes_quotes_and_carries_family() {
        let d = Diagnostic::spanned("a.rs", 3, 5, 9, Rule::NoPanic, "say \"no\"".to_string());
        assert_eq!(
            d.to_json(),
            "{\"file\":\"a.rs\",\"line\":3,\"col\":5,\"end_col\":9,\"rule\":\"no-panic\",\
             \"family\":\"style\",\"baselined\":false,\"message\":\"say \\\"no\\\"\"}"
        );
        assert_eq!(to_json(&[]), "[]");
    }
}
