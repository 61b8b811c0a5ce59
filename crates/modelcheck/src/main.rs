//! CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p modelcheck                      # human-readable diagnostics
//! cargo run -p modelcheck -- --emit json       # machine-readable JSON array
//! cargo run -p modelcheck -- --emit github     # GitHub Actions annotations
//! cargo run -p modelcheck -- --list-rules      # every rule, one per line
//! cargo run -p modelcheck -- --dump-summaries  # per-function summaries
//! cargo run -p modelcheck -- --fix-baseline    # accept current findings
//! cargo run -p modelcheck -- --baseline F      # read/write baseline at F
//! cargo run -p modelcheck -- <root>            # scan a different tree
//! ```
//!
//! Findings listed in the baseline file (`modelcheck.baseline` at the
//! scan root by default) are reported as warnings; anything else is an
//! error. Exits 0 when there are no *new* findings, 1 when any
//! non-baselined rule fires, 2 on usage errors — so CI can gate on it
//! directly.
//!
//! After a human or `--emit github` run, one summary line goes to
//! stderr: the new and baselined finding counts, then the scan's size
//! as `files= graph_nodes= graph_edges= ambiguous_calls= allow_sites=`
//! (see `modelcheck::ScanStats`). `--emit json` prints no summary, so
//! its stdout stays one JSON array.
//!
//! ## `--emit json` output schema
//!
//! One JSON array of finding objects, sorted by (file, line, col).
//! Every object carries exactly these keys, in this order:
//!
//! ```text
//! file       string  path relative to the scan root, `/`-separated
//! line       number  1-based line of the finding
//! col        number  1-based starting column on that line
//! end_col    number  1-based column one past the flagged token
//! rule       string  rule name as printed by --list-rules
//! family     string  rule family (style, concurrency, dataflow,
//!                    numeric, protocol, config, lexer, parser)
//! baselined  bool    true when the finding is in the baseline file
//! message    string  human-readable explanation with the fix hint
//! ```
//!
//! The schema is append-only: consumers may rely on these keys keeping
//! their meaning, and must ignore keys they do not recognize.
//! `--json` is a compatibility alias for `--emit json`.
//!
//! ## `--emit github` output format
//!
//! One [workflow command] per finding —
//! `::error file=F,line=L,col=C,endColumn=E,title=modelcheck R::MSG`
//! (baselined findings use `::warning`) — so a CI job's findings show
//! up as inline annotations on the pull request diff with no extra
//! tooling. Message text is escaped per the workflow-command rules
//! (`%` → `%25`, newlines → `%0A`/`%0D`).
//!
//! [workflow command]:
//!     https://docs.github.com/actions/reference/workflow-commands-for-github-actions
//!
//! ## `--list-rules` output format
//!
//! One line per rule, `tab`-separated:
//! `name<TAB>family<TAB>pragma<TAB>description`, where `pragma` is the
//! spelling to put in a `//! modelcheck:` header line to opt a file in
//! (or `-` for always-on rules that no pragma controls).
//!
//! ## `--dump-summaries` output format
//!
//! One line per call-graph node (function definition with a body),
//! sorted by (file, line): the signature, the interprocedural taint
//! summary (`ret=` labels and `sinks=` reached by parameters), and the
//! lock summary (`locks=` acquired, `held=` guards held across calls,
//! `returns-lock=`, `blocking=`). A debugging view of exactly what the
//! graph passes propagate — not a stable interface.

use std::path::PathBuf;
use std::process::ExitCode;

/// How findings are printed.
#[derive(Clone, Copy, PartialEq)]
enum Emit {
    Human,
    Json,
    Github,
}

/// Escapes a workflow-command *value* (the message after `::`).
fn gh_escape_value(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes a workflow-command *property* (file, title — `,` and `:`
/// would terminate the property otherwise).
fn gh_escape_prop(s: &str) -> String {
    gh_escape_value(s).replace(':', "%3A").replace(',', "%2C")
}

fn main() -> ExitCode {
    let mut emit = Emit::Human;
    let mut fix_baseline = false;
    let mut dump_summaries = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => emit = Emit::Json,
            "--emit" => match args.next().as_deref() {
                Some("human") => emit = Emit::Human,
                Some("json") => emit = Emit::Json,
                Some("github") => emit = Emit::Github,
                Some(other) => {
                    eprintln!("modelcheck: unknown emit mode `{other}` (human|json|github)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("modelcheck: --emit needs a mode (human|json|github)");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in modelcheck::Rule::ALL {
                    println!(
                        "{}\t{}\t{}\t{}",
                        rule.name(),
                        rule.family(),
                        rule.pragma_spelling().unwrap_or("-"),
                        rule.describe()
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--dump-summaries" => dump_summaries = true,
            "--fix-baseline" => fix_baseline = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("modelcheck: --baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: modelcheck [--emit human|json|github] [--list-rules] \
                     [--dump-summaries] [--fix-baseline] [--baseline <file>] [workspace-root]"
                );
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("modelcheck: unrecognized argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // `cargo run -p modelcheck` sets the manifest dir to crates/modelcheck;
    // the workspace root is two levels up.
    let root =
        root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".."));
    let baseline_path = baseline_path.unwrap_or_else(|| modelcheck::baseline::default_path(&root));

    if dump_summaries {
        print!("{}", modelcheck::dump_summaries(&root));
        return ExitCode::SUCCESS;
    }

    let (mut diags, stats) = modelcheck::scan_workspace_with_stats(&root);

    if fix_baseline {
        let text = modelcheck::baseline::render(&diags);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("modelcheck: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "modelcheck: baselined {} finding{} into {}",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut stale = 0;
    if let Ok(text) = std::fs::read_to_string(&baseline_path) {
        let (entries, bad) = modelcheck::baseline::parse(&text);
        for b in &bad {
            eprintln!("modelcheck: unparseable baseline line ignored: {b:?}");
        }
        stale = modelcheck::baseline::mark(&mut diags, &entries);
    }
    let new = diags.iter().filter(|d| !d.baselined).count();
    let sizes = format!(
        "files={} graph_nodes={} graph_edges={} ambiguous_calls={} allow_sites={}",
        stats.files, stats.graph_nodes, stats.graph_edges, stats.ambiguous_calls, stats.allow_sites
    );

    match emit {
        Emit::Json => println!("{}", modelcheck::to_json(&diags)),
        Emit::Github => {
            for d in &diags {
                let level = if d.baselined { "warning" } else { "error" };
                println!(
                    "::{level} file={},line={},col={},endColumn={},title={}::{}",
                    gh_escape_prop(&d.file),
                    d.line,
                    d.col,
                    d.end_col,
                    gh_escape_prop(&format!("modelcheck {}", d.rule.name())),
                    gh_escape_value(&d.message)
                );
            }
            eprintln!(
                "modelcheck: {new} new diagnostic{}, {} baselined; {sizes}",
                if new == 1 { "" } else { "s" },
                diags.len() - new
            );
        }
        Emit::Human => {
            for d in &diags {
                if d.baselined {
                    println!("{d} (baselined)");
                } else {
                    println!("{d}");
                }
            }
            eprintln!(
                "modelcheck: {} new diagnostic{}, {} baselined, in {}; {sizes}",
                new,
                if new == 1 { "" } else { "s" },
                diags.len() - new,
                root.display()
            );
            if stale > 0 {
                eprintln!(
                    "modelcheck: {stale} stale baseline entr{} — run --fix-baseline to shrink \
                     the baseline",
                    if stale == 1 { "y" } else { "ies" }
                );
            }
        }
    }
    if new == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
