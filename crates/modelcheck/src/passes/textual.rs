//! The style pass: the v2 line rules (`no-panic`, `naked-f64`,
//! `lossy-cast`, `no-todo-dbg`, `missing-docs`) re-hosted on the lexed
//! code view, with column spans on every finding.

use super::{contains_token, find_str, find_token, token_positions, FileInput};
use crate::{Diagnostic, Rule};
use std::borrow::Cow;

/// A `pub fn` signature accumulated from its first line to the opening
/// `{` or terminating `;` (whichever comes first).
fn signature_text(code_lines: &[Cow<'_, str>], start: usize) -> String {
    let mut sig = String::new();
    for code in code_lines.iter().skip(start) {
        if let Some(stop) = code.find(['{', ';']) {
            sig.push_str(&code[..stop]);
            break;
        }
        sig.push_str(code);
        sig.push(' ');
    }
    sig
}

const PUB_ITEM_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union"];

/// The item keyword of a public item declaration, if the trimmed code
/// line starts one (`pub fn`, `pub struct`, … — but not `pub use` or
/// `pub(crate)`, which `missing_docs` also skips).
fn pub_item_keyword(trimmed: &str) -> Option<&'static str> {
    let rest = trimmed.strip_prefix("pub ")?;
    let rest = rest.trim_start();
    // `pub async fn`, `pub unsafe fn`, `pub const fn` and stacks thereof.
    let rest = ["async ", "unsafe ", "const ", "extern \"C\" "]
        .iter()
        .fold(rest, |r, q| r.strip_prefix(q).unwrap_or(r).trim_start());
    PUB_ITEM_KEYWORDS
        .iter()
        .find(|kw| rest.strip_prefix(*kw).is_some_and(|after| after.starts_with([' ', '<', '('])))
        .copied()
}

/// True when the item declared on line `i` has a doc comment (or
/// `#[doc…]` attribute) directly above it, attributes skipped. Reads
/// the raw lines: doc comments are blanked in the code view.
fn has_doc_above(raw_lines: &[&str], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if t.starts_with("#[doc") || t.starts_with("///") || t.starts_with("//!") {
            return true;
        }
        if t.starts_with("#[") || t.starts_with("#!") || t.starts_with("//") {
            continue; // attributes and plain comments are trivia to rustdoc
        }
        return false;
    }
    false
}

/// Heuristic: the expression token just before an ` as ` cast is visibly
/// floating-point (a literal like `1.5`, or a `.floor()`-family call).
fn float_evidence_before(code: &str, as_pos: usize) -> bool {
    let before = code[..as_pos].trim_end();
    for suffix in [".floor()", ".ceil()", ".round()", ".trunc()"] {
        if before.ends_with(suffix) {
            return true;
        }
    }
    let token_start = before
        .rfind(|c: char| c.is_whitespace() || c == '(' || c == ',' || c == '=')
        .map_or(0, |p| p + 1);
    let token = &before[token_start..];
    // A float literal: a '.' immediately followed by a digit.
    token.as_bytes().windows(2).any(|w| w[0] == b'.' && w[1].is_ascii_digit())
}

const INT_CAST_TARGETS: [&str; 12] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// Runs the style rules over the file's code view.
pub fn run(input: &FileInput<'_>) -> Vec<Diagnostic> {
    let scope = input.scope;
    let mut diags = Vec::new();
    let mut push = |line: usize, col: usize, width: usize, rule: Rule, message: String| {
        diags.push(Diagnostic::spanned(
            input.rel,
            line + 1,
            col + 1,
            col + 1 + width,
            rule,
            message,
        ));
    };

    // The scanner must not trip over its own rule patterns when scanning
    // this very file, hence the split literals.
    let todo_pat = concat!("to", "do!");
    let dbg_pat = concat!("d", "bg!");

    for (i, code) in input.code_lines.iter().enumerate() {
        let code: &str = code;
        if code.trim().is_empty() {
            continue;
        }

        // no-todo-dbg: everywhere, including tests.
        if !input.allowed(i, Rule::NoTodoDbg) {
            for pat in [todo_pat, dbg_pat] {
                if let Some(at) = find_token(code, pat) {
                    push(i, at, pat.len(), Rule::NoTodoDbg, format!("`{pat}` must not ship"));
                }
            }
        }

        if input.test_mask[i] {
            continue;
        }

        if scope.no_panic && !input.allowed(i, Rule::NoPanic) {
            if let Some(at) = find_str(code, ".unwrap()") {
                push(
                    i,
                    at,
                    ".unwrap()".len(),
                    Rule::NoPanic,
                    "`.unwrap()` in model code — return a Result or `.expect` with an \
                     invariant message under an allow"
                        .to_string(),
                );
            }
            if let Some(at) = find_str(code, ".expect(") {
                push(
                    i,
                    at,
                    ".expect(".len(),
                    Rule::NoPanic,
                    "`.expect(` in model code — needs a `modelcheck-allow: no-panic` \
                     stating the invariant"
                        .to_string(),
                );
            }
            if let Some(at) = find_token(code, "panic!") {
                push(
                    i,
                    at,
                    "panic!".len(),
                    Rule::NoPanic,
                    "`panic!` in model code — encode the invariant as an `assert!` or \
                     return an error"
                        .to_string(),
                );
            }
        }

        if scope.naked_f64
            && pub_item_keyword(code.trim_start()) == Some("fn")
            && !input.allowed(i, Rule::NakedF64)
        {
            let sig = signature_text(&input.code_lines, i);
            for ty in ["f64", "f32"] {
                if contains_token(&sig, ty) {
                    let at = find_token(code, ty).unwrap_or(0);
                    push(
                        i,
                        at,
                        ty.len(),
                        Rule::NakedF64,
                        format!(
                            "bare `{ty}` in a public signature — use the `units` \
                             newtypes (Seconds, Prob, Slowdown, …)"
                        ),
                    );
                }
            }
        }

        if scope.lossy_cast && !input.allowed(i, Rule::LossyCast) {
            let target_is = |after: &str, ty: &str| {
                after.starts_with(ty)
                    && !after[ty.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            };
            for pos in token_positions(code, "as") {
                let after = code[pos + 2..].trim_start();
                if let Some(ty) = ["f64", "f32"].iter().find(|ty| target_is(after, ty)) {
                    push(
                        i,
                        pos,
                        2,
                        Rule::LossyCast,
                        format!(
                            "`as {ty}` cast — route through `units::f64_from_u64` \
                             (exact below 2⁵³) or add an allow with the bound"
                        ),
                    );
                } else if INT_CAST_TARGETS.iter().any(|ty| target_is(after, ty))
                    && float_evidence_before(code, pos)
                {
                    push(
                        i,
                        pos,
                        2,
                        Rule::LossyCast,
                        "float → integer `as` cast truncates — justify with an allow".to_string(),
                    );
                }
            }
        }

        // An out-of-line `pub mod name;` carries its docs as the `//!`
        // header of the module file itself, which rustc accepts — so only
        // inline modules are checked at the declaration site.
        let out_of_line_mod = |kw| kw == "mod" && code.trim_end().ends_with(';');
        if scope.missing_docs
            && pub_item_keyword(code.trim_start()).is_some_and(|kw| !out_of_line_mod(kw))
            && !input.allowed(i, Rule::MissingDocs)
            && !has_doc_above(&input.raw_lines, i)
        {
            let at = code.find("pub").unwrap_or(0);
            push(i, at, 3, Rule::MissingDocs, "public item without a doc comment".to_string());
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileScope;

    fn scan(body: &str) -> Vec<Diagnostic> {
        let (input, mut diags) = FileInput::build("x.rs", body, FileScope::ALL);
        diags.extend(run(&input));
        diags
    }

    #[test]
    fn string_literal_does_not_hide_code_after_fake_comment() {
        let d = scan("fn f() { let u = \"https://h\"; g.unwrap(); }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::NoPanic);
    }

    #[test]
    fn block_comment_prose_is_ignored() {
        assert!(scan("/* g.unwrap() and panic! are prose */ fn f() {}\n").is_empty());
    }

    #[test]
    fn spans_point_at_the_pattern() {
        let d = scan("fn f() { g.unwrap(); }\n");
        assert_eq!((d[0].line, d[0].col, d[0].end_col), (1, 11, 20));
    }
}
