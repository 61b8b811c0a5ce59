//! The analysis passes and the shared per-file input they run over.
//!
//! [`FileInput::build`] lexes a file once and derives everything every
//! pass needs: the raw lines (for allow comments and doc detection), a
//! *code view* of each line with comment bytes blanked out (so textual
//! rules never fire on prose, even in block comments or after `//`
//! hidden inside a string), the per-line `modelcheck-allow` rule mask,
//! the `#[cfg(test)]` mask, and the token stream itself. If the lexer fails
//! the pass degrades to the v2 line scanner (cut each line at the first
//! `//`) and a [`crate::Rule::Lex`] diagnostic records the failure.

pub mod atomics;
pub mod drift;
pub mod event_loop;
pub mod float_env;
pub mod lock;
pub mod lock_order;
pub mod taint;
pub mod textual;

use crate::lexer::{lex, TokKind, Token};
use crate::{Diagnostic, FileScope, Rule};
use std::borrow::Cow;

/// Everything the per-file passes share, computed once per file.
pub struct FileInput<'a> {
    /// Workspace-relative path used in diagnostics.
    pub rel: &'a str,
    /// The file's lines, verbatim.
    pub raw_lines: Vec<&'a str>,
    /// The file's lines with every comment byte blanked to a space
    /// (string contents are preserved — signatures like `extern "C"`
    /// must stay visible). Lines no comment touches borrow the text.
    pub code_lines: Vec<Cow<'a, str>>,
    /// Lines carrying a `modelcheck-allow:` grant.
    pub(crate) allow_sites: usize,
    /// `allow_mask[i]` has bit `rule as u32` set when `rule` is allowed
    /// on 0-based line `i`; see [`FileInput::allowed`].
    allow_mask: Vec<u32>,
    /// `test_mask[i]` is true when 0-based line `i` sits inside a
    /// `#[cfg(test)]`-gated item.
    pub test_mask: Vec<bool>,
    /// The token stream; empty when lexing failed.
    pub tokens: Vec<Token<'a>>,
    /// The rules in force for this file.
    pub scope: FileScope,
}

impl<'a> FileInput<'a> {
    /// Lexes `text` and assembles the shared pass input. The returned
    /// diagnostics are lex failures (at most one), not rule findings.
    pub fn build(
        rel: &'a str,
        text: &'a str,
        scope: FileScope,
    ) -> (FileInput<'a>, Vec<Diagnostic>) {
        let raw_lines: Vec<&str> = text.lines().collect();
        let mut diags = Vec::new();
        let (tokens, code_lines) = match lex(text) {
            Ok(tokens) => {
                let code = blank_comments(text, &raw_lines, &tokens);
                (tokens, code)
            }
            Err(e) => {
                diags.push(Diagnostic::spanned(
                    rel,
                    e.line,
                    e.col,
                    e.col + 1,
                    Rule::Lex,
                    format!("file does not lex ({}); falling back to line scanning", e.message),
                ));
                (Vec::new(), raw_lines.iter().map(|l| Cow::Borrowed(code_part(l))).collect())
            }
        };
        let (allow_mask, allow_sites) = allow_masks(&raw_lines);
        let test_mask = cfg_test_mask(&code_lines, &tokens);
        let input = FileInput {
            rel,
            raw_lines,
            code_lines,
            allow_sites,
            allow_mask,
            test_mask,
            tokens,
            scope,
        };
        (input, diags)
    }

    /// True when 0-based line `i` carries an allow for `rule`: on the
    /// line itself, or anywhere in the contiguous comment block
    /// directly above it (so a justification can take several lines).
    pub fn allowed(&self, i: usize, rule: Rule) -> bool {
        self.allow_mask.get(i).is_some_and(|m| m & rule_bit(rule) != 0)
    }

    /// True when 1-based line `line` is inside a `#[cfg(test)]` block.
    pub fn in_test(&self, line: usize) -> bool {
        line >= 1 && self.test_mask.get(line - 1).copied().unwrap_or(false)
    }

    /// The non-comment tokens, in source order.
    pub fn code_tokens(&self) -> Vec<&Token<'a>> {
        self.tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect()
    }
}

/// Rebuilds the file's lines with every comment token's bytes replaced
/// by spaces (newlines kept, so line numbering is unchanged). A line
/// the blanking left as it was borrows its raw line.
fn blank_comments<'a>(
    text: &'a str,
    raw_lines: &[&'a str],
    tokens: &[Token<'_>],
) -> Vec<Cow<'a, str>> {
    let mut bytes = text.as_bytes().to_vec();
    for t in tokens {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            for b in &mut bytes[t.start..t.end] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
    }
    // Only ASCII bytes were rewritten (whole comment spans cover whole
    // chars), so the buffer is still valid UTF-8.
    let blanked = String::from_utf8(bytes).unwrap_or_else(|_| text.to_string());
    // Blanking never touches a newline, so both texts split into the
    // same lines.
    blanked
        .lines()
        .zip(raw_lines)
        .map(|(code, &raw)| if code == raw { Cow::Borrowed(raw) } else { Cow::Owned(code.into()) })
        .collect()
}

/// The v2 fallback code view: everything before the first `//`.
pub(crate) fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// The mask bit of `rule` in [`FileInput::allowed`]'s per-line masks.
fn rule_bit(rule: Rule) -> u32 {
    1 << rule as u32
}

/// The rule name a line's `modelcheck-allow:` comment grants, if any.
fn allow_grant(line: &str) -> Option<&str> {
    let marker = "modelcheck-allow:";
    let at = find_str(line, marker)?;
    let rest = line[at + marker.len()..].trim_start();
    let len = rest.bytes().take_while(|b| b.is_ascii_alphanumeric() || *b == b'-').count();
    (len > 0).then(|| &rest[..len])
}

/// Per-line allow masks in one pass, plus the number of lines carrying
/// a grant. Line `i`'s mask is its own grant plus the grants of the
/// contiguous `//`/`#[` block directly above it; a name that is no rule
/// grants nothing. One extra entry past the last line carries the
/// file's trailing block.
fn allow_masks(lines: &[&str]) -> (Vec<u32>, usize) {
    let mut masks = Vec::with_capacity(lines.len() + 1);
    let mut sites = 0;
    let mut above = 0u32;
    for line in lines {
        let grant = allow_grant(line).map_or(0, |name| {
            sites += 1;
            Rule::ALL.iter().find(|r| r.name() == name).map_or(0, |&r| rule_bit(r))
        });
        masks.push(grant | above);
        let t = line.trim_start();
        above = if t.starts_with("//") || t.starts_with("#[") { above | grant } else { 0 };
    }
    masks.push(above);
    (masks, sites)
}

/// Marks every line inside a `#[cfg(test)]`-gated item by brace
/// counting from the attribute to the close of the block it opens. The
/// attribute is found in the comment-blanked code view, so a comment
/// mentioning it does not start a mask. Braces are counted as `{`/`}`
/// punctuation tokens, so one inside a string or char literal never
/// moves the depth; when lexing failed (no tokens) the characters of
/// the `//`-cut fallback lines are counted instead.
fn cfg_test_mask(code_lines: &[Cow<'_, str>], tokens: &[Token<'_>]) -> Vec<bool> {
    // Per line: whether it opens a brace, and its net depth change.
    let mut braces = vec![(false, 0i64); code_lines.len()];
    if tokens.is_empty() {
        for (b, line) in braces.iter_mut().zip(code_lines) {
            for c in line.chars() {
                match c {
                    '{' => *b = (true, b.1 + 1),
                    '}' => b.1 -= 1,
                    _ => {}
                }
            }
        }
    } else {
        for t in tokens.iter().filter(|t| t.kind == TokKind::Punct) {
            let Some(b) = braces.get_mut(t.line - 1) else { continue };
            match t.text {
                "{" => *b = (true, b.1 + 1),
                "}" => b.1 -= 1,
                _ => {}
            }
        }
    }
    let mut mask = vec![false; code_lines.len()];
    let mut i = 0;
    while i < code_lines.len() {
        if find_str(&code_lines[i], "#[cfg(test)]").is_none() {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < code_lines.len() {
            mask[j] = true;
            opened |= braces[j].0;
            depth += braces[j].1;
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// The first byte offset of `needle` in `hay`: a scan for the needle's
/// first byte, then a compare of the rest. Unlike `str::find` it builds
/// no searcher, which is what the short per-line needles want. An
/// empty `needle` is never found.
pub(crate) fn find_str(hay: &str, needle: &str) -> Option<usize> {
    let (h, n) = (hay.as_bytes(), needle.as_bytes());
    let (&first, rest) = n.split_first()?;
    let last = h.len().checked_sub(n.len())?;
    let mut from = 0;
    while from <= last {
        let i = from + h[from..=last].iter().position(|&b| b == first)?;
        if h[i + 1..i + n.len()] == *rest {
            return Some(i);
        }
        from = i + 1;
    }
    None
}

/// True when `needle` occurs in `hay` with non-identifier characters (or
/// the string boundary) on both sides — so `f64` does not match inside
/// `f64_from_u64`.
pub(crate) fn contains_token(hay: &str, needle: &str) -> bool {
    find_token(hay, needle).is_some()
}

pub(crate) fn find_token(hay: &str, needle: &str) -> Option<usize> {
    token_positions(hay, needle).next()
}

/// Every token-boundary occurrence of `needle` in `hay`, in order.
pub(crate) fn token_positions<'h>(
    hay: &'h str,
    needle: &'h str,
) -> impl Iterator<Item = usize> + 'h {
    let bytes = hay.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(pos) = find_str(&hay[from..], needle) {
            let start = from + pos;
            let end = start + needle.len();
            from = start + 1;
            let ok_before = start == 0 || !is_ident(bytes[start - 1]);
            let ok_after = end >= bytes.len() || !is_ident(bytes[end]);
            if ok_before && ok_after {
                return Some(start);
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-call walk `allowed()` replaced: the line's own grant,
    /// then upward through the contiguous `//`/`#[` block above it.
    fn walk_allowed(lines: &[&str], i: usize, rule: Rule) -> bool {
        let grant = |j: usize| -> Option<String> {
            let line = lines.get(j)?;
            let marker = "modelcheck-allow:";
            let at = line.find(marker)?;
            let rest = line[at + marker.len()..].trim_start();
            let name: String =
                rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect();
            (!name.is_empty()).then_some(name)
        };
        let hit = |j: usize| grant(j).as_deref() == Some(rule.name());
        if hit(i) {
            return true;
        }
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = lines.get(j).map_or("", |l| l.trim_start());
            if !(t.starts_with("//") || t.starts_with("#[")) {
                return false;
            }
            if hit(j) {
                return true;
            }
        }
        false
    }

    #[test]
    fn allow_mask_agrees_with_the_upward_walk() {
        let cases: [(&str, &str, usize, Rule, bool); 14] = [
            ("same line", "x.unwrap(); // modelcheck-allow: no-panic\n", 0, Rule::NoPanic, true),
            ("other rule", "x.unwrap(); // modelcheck-allow: no-panic\n", 0, Rule::Atomics, false),
            (
                "multi-line block",
                "// modelcheck-allow: no-panic — the invariant\n// takes two lines\nx.unwrap();\n",
                2,
                Rule::NoPanic,
                true,
            ),
            (
                "attributes inside the block",
                "  // modelcheck-allow: lossy-cast\n  #[inline]\n  // why\n  fn f() {}\n",
                3,
                Rule::LossyCast,
                true,
            ),
            (
                "block broken by code",
                "// modelcheck-allow: no-panic\nfn g() {}\nx.unwrap();\n",
                2,
                Rule::NoPanic,
                false,
            ),
            (
                "trailing grant on a code line above",
                "let a = 1; // modelcheck-allow: no-panic\nx.unwrap();\n",
                1,
                Rule::NoPanic,
                false,
            ),
            (
                "two grants in one block",
                "// modelcheck-allow: atomics\n// modelcheck-allow: float-env\nf();\n",
                2,
                Rule::Atomics,
                true,
            ),
            (
                "unknown rule name",
                "// modelcheck-allow: no-panik\nx.unwrap();\n",
                1,
                Rule::NoPanic,
                false,
            ),
            (
                "first line, own grant",
                "// modelcheck-allow: atomics\nf();\n",
                0,
                Rule::Atomics,
                true,
            ),
            (
                "first line, no grant",
                "f();\n// modelcheck-allow: atomics\n",
                0,
                Rule::Atomics,
                false,
            ),
            ("last line", "f();\ng(); // modelcheck-allow: float-env\n", 1, Rule::FloatEnv, true),
            (
                "one past the last line",
                "f();\n// modelcheck-allow: atomics\n",
                2,
                Rule::Atomics,
                true,
            ),
            ("far out of range", "// modelcheck-allow: atomics\n", 9, Rule::Atomics, false),
            ("empty file", "", 0, Rule::NoPanic, false),
        ];
        for (what, text, line, rule, want) in cases {
            let (input, _) = FileInput::build("a.rs", text, FileScope::ALL);
            assert_eq!(walk_allowed(&input.raw_lines, line, rule), want, "old walk: {what}");
            assert_eq!(input.allowed(line, rule), want, "mask: {what}");
        }
    }

    #[test]
    fn allow_sites_count_lines_with_a_grant() {
        let text =
            "// modelcheck-allow: no-panic\n// modelcheck-allow:\nf(); // modelcheck-allow: x\n";
        let (input, _) = FileInput::build("a.rs", text, FileScope::ALL);
        assert_eq!(input.allow_sites, 2);
    }

    /// Short pieces, ASCII and not, so needles often occur in the
    /// haystack and multi-byte chars sit next to every match.
    const PIECES: [&str; 9] = ["a", "b", "ab", ".", "(", "é", "日", "🦀", "unwrap"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `find_str` agrees with `str::find` for every non-empty needle.
        fn find_str_agrees_with_str_find(
            hay in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..16),
            needle in prop::collection::vec(prop::sample::select(PIECES.to_vec()), 1..4),
            cut in (0usize..24, 1usize..6),
        ) {
            let hay = hay.concat();
            let needle = needle.concat();
            prop_assert_eq!(find_str(&hay, &needle), hay.find(needle.as_str()));
            // A needle cut from the haystack itself always occurs.
            let chars: Vec<char> = hay.chars().collect();
            let (at, len) = cut;
            if at + len <= chars.len() {
                let sub: String = chars[at..at + len].iter().collect();
                prop_assert_eq!(find_str(&hay, &sub), hay.find(sub.as_str()));
            }
        }
    }

    #[test]
    fn code_view_blanks_block_and_line_comments_but_keeps_strings() {
        let text = "let a = 1; /* panic! */ // more\nlet s = \"x // y\";\n";
        let (input, diags) = FileInput::build("a.rs", text, FileScope::ALL);
        assert!(diags.is_empty());
        assert!(!input.code_lines[0].contains("panic"));
        assert!(!input.code_lines[0].contains("more"));
        assert!(input.code_lines[0].contains("let a = 1;"));
        assert!(input.code_lines[1].contains("\"x // y\""));
    }

    #[test]
    fn multiline_block_comment_blanks_every_line() {
        let text = "a\n/*\nx.unwrap()\n*/\nb\n";
        let (input, _) = FileInput::build("a.rs", text, FileScope::ALL);
        assert_eq!(input.code_lines.len(), 5);
        assert!(input.code_lines[2].trim().is_empty());
        assert_eq!(input.code_lines[4], "b");
    }

    #[test]
    fn lex_failure_degrades_with_a_diagnostic() {
        let text = "let s = \"never closed;\n";
        let (input, diags) = FileInput::build("a.rs", text, FileScope::ALL);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::Lex);
        assert!(input.tokens.is_empty());
        assert_eq!(input.code_lines.len(), 1);
    }

    #[test]
    fn cfg_test_mask_counts_brace_tokens_not_literal_braces() {
        let text =
            "#[cfg(test)]\nmod t {\n    const S: &str = \"}\";\n    fn f() {}\n}\nfn g() {}\n";
        let (input, _) = FileInput::build("a.rs", text, FileScope::ALL);
        assert_eq!(input.test_mask, [true, true, true, true, true, false]);
        // A file that does not lex counts the characters of its `//`-cut
        // lines instead.
        let text = "#[cfg(test)]\nmod t { // }\n}\nlet s = \"open;\n";
        let (input, diags) = FileInput::build("a.rs", text, FileScope::ALL);
        assert_eq!(diags.len(), 1);
        assert_eq!(input.test_mask, [true, true, true, false]);
    }

    #[test]
    fn cfg_test_mask_ignores_comment_mentions() {
        let text = "// #[cfg(test)] would mask\nfn f() {}\n#[cfg(test)]\nmod t {\n}\n";
        let (input, _) = FileInput::build("a.rs", text, FileScope::ALL);
        assert!(!input.test_mask[0] && !input.test_mask[1]);
        assert!(input.test_mask[2] && input.test_mask[3] && input.test_mask[4]);
    }
}
