//! A hand-rolled Rust lexer: the foundation of the v3 multi-pass
//! analyzer.
//!
//! The v2 scanner worked line by line and could be fooled by exactly
//! the constructs Rust makes easy: `//` inside a string literal,
//! `panic!` inside a *block* comment, raw strings holding arbitrary
//! code. The lexer tokenizes whole files instead — normal and raw
//! strings (any `#` depth, `b`/`c` prefixes), char literals vs
//! lifetimes, nested block comments, numbers with exponents — and
//! every token carries its span (line, column, byte range), so passes
//! can point diagnostics at the offending token rather than a whole
//! line.
//!
//! It is still zero-dependency and deliberately *not* a parser: no
//! AST, no name resolution ([`crate::ast`] builds the tree on top).
//! Lexing is a small share of a scan: on the frozen benchmark tree
//! (147 files, 1.3 MB of source) a warm full workspace scan takes about
//! 80 ms on a 2-vCPU Xeon VM, of which lexing is about 6 ms.
//!
//! Robustness bar: every `.rs` file in the workspace must lex without
//! error (pinned by a self-test in `tests/cli.rs`); a file that fails
//! to lex surfaces as a [`crate::Rule::Lex`] diagnostic, never a
//! panic.

/// What a token is, at the granularity the passes need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (includes raw identifiers like `r#type`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// Integer or float literal, including suffixes (`1_000u64`, `1.5e-3`).
    Number,
    /// String literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `// …` comment, including `///` and `//!` doc comments.
    LineComment,
    /// `/* … */` comment, nesting tracked.
    BlockComment,
    /// A single punctuation byte (`{`, `:`, `=`, …). Multi-byte
    /// operators arrive as adjacent tokens; passes that care check
    /// adjacency via [`Token::end`].
    Punct,
}

/// One lexed token with its source span.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    /// Token class.
    pub kind: TokKind,
    /// The exact source slice (quotes and prefixes included).
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: usize,
    /// 1-based byte column of the token's first byte.
    pub col: usize,
    /// Byte offset of the token's first byte.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
}

/// Where and why lexing failed (unterminated string/char/comment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line of the offending construct's start.
    pub line: usize,
    /// 1-based byte column of the offending construct's start.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

/// True for bytes that can start an identifier. Non-ASCII leading
/// bytes count: Rust identifiers may be Unicode and the lexer only
/// needs to group them, not validate them.
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// True for bytes that can continue an identifier.
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'a> {
    text: &'a str,
    b: &'a [u8],
    i: usize,
    line: usize,
    /// Byte offset where the current line starts (for columns).
    line_start: usize,
}

impl<'a> Lexer<'a> {
    fn col(&self, at: usize) -> usize {
        at - self.line_start + 1
    }

    fn err(&self, start: usize, start_line: usize, start_col: usize, what: &str) -> LexError {
        let _ = start;
        LexError { line: start_line, col: start_col, message: what.to_string() }
    }

    fn newline(&mut self, at: usize) {
        self.line += 1;
        self.line_start = at + 1;
    }

    /// Advances past one byte, tracking newlines.
    fn bump(&mut self) {
        if self.b[self.i] == b'\n' {
            self.newline(self.i);
        }
        self.i += 1;
    }

    /// Consumes a `// …` comment (terminator newline excluded).
    fn line_comment(&mut self) {
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
    }

    /// Consumes a nested `/* … */` comment; `self.i` sits on the `/`.
    fn block_comment(&mut self) -> Result<(), (usize, usize)> {
        let (sl, sc) = (self.line, self.col(self.i));
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'/' if self.b.get(self.i + 1) == Some(&b'*') => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.b.get(self.i + 1) == Some(&b'/') => {
                    depth -= 1;
                    self.i += 2;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => self.bump(),
            }
        }
        Err((sl, sc))
    }

    /// Consumes the body of a normal (escaping) string; `self.i` sits
    /// on the opening quote.
    fn quoted(&mut self, quote: u8) -> Result<(), (usize, usize)> {
        let (sl, sc) = (self.line, self.col(self.i));
        self.i += 1;
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => {
                    self.i += 1;
                    if self.i < self.b.len() {
                        self.bump();
                    }
                }
                b if b == quote => {
                    self.i += 1;
                    return Ok(());
                }
                _ => self.bump(),
            }
        }
        Err((sl, sc))
    }

    /// Consumes a raw string starting at the `#`s or quote after an
    /// `r`/`br`/`cr` prefix.
    fn raw_string(&mut self) -> Result<(), (usize, usize)> {
        let (sl, sc) = (self.line, self.col(self.i));
        let mut hashes = 0usize;
        while self.b.get(self.i) == Some(&b'#') {
            hashes += 1;
            self.i += 1;
        }
        if self.b.get(self.i) != Some(&b'"') {
            return Err((sl, sc));
        }
        self.i += 1;
        while self.i < self.b.len() {
            if self.b[self.i] == b'"' {
                let tail = &self.b[self.i + 1..];
                if tail.len() >= hashes && tail[..hashes].iter().all(|&h| h == b'#') {
                    self.i += 1 + hashes;
                    return Ok(());
                }
            }
            self.bump();
        }
        Err((sl, sc))
    }

    /// Consumes a number literal. Heuristic but safe: consumes
    /// alphanumerics/underscores, a fraction dot only when a digit
    /// follows (so `1..2` and `1.max()` split correctly), and an
    /// exponent sign after `e`/`E` in decimal literals.
    fn number(&mut self) {
        let start = self.i;
        let hexish = self.b[self.i] == b'0'
            && matches!(self.b.get(self.i + 1), Some(b'x' | b'X' | b'b' | b'o'));
        let mut seen_dot = false;
        while self.i < self.b.len() {
            let b = self.b[self.i];
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.i += 1;
            } else if b == b'.'
                && !seen_dot
                && self.b.get(self.i + 1).is_some_and(u8::is_ascii_digit)
            {
                seen_dot = true;
                self.i += 1;
            } else if (b == b'+' || b == b'-')
                && !hexish
                && self.i > start
                && matches!(self.b[self.i - 1], b'e' | b'E')
                && self.b.get(self.i + 1).is_some_and(u8::is_ascii_digit)
            {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    /// After a `'`: decides char literal vs lifetime. `self.i` sits on
    /// the quote. Returns the token kind consumed.
    fn char_or_lifetime(&mut self) -> Result<TokKind, (usize, usize)> {
        let (sl, sc) = (self.line, self.col(self.i));
        let next = self.b.get(self.i + 1).copied();
        match next {
            // `'\…'` is always a char literal.
            Some(b'\\') => {
                self.quoted(b'\'').map_err(|_| (sl, sc))?;
                Ok(TokKind::Char)
            }
            Some(c) => {
                // One character (possibly multibyte), then a closing
                // quote → char literal; otherwise a lifetime/label.
                let c_len = self.text[self.i + 1..].chars().next().map_or(1, char::len_utf8);
                if self.b.get(self.i + 1 + c_len) == Some(&b'\'') && c != b'\'' {
                    for _ in 0..(1 + c_len + 1) {
                        self.bump();
                    }
                    Ok(TokKind::Char)
                } else if is_ident_start(c) {
                    self.i += 2;
                    while self.i < self.b.len() && is_ident_continue(self.b[self.i]) {
                        self.i += 1;
                    }
                    Ok(TokKind::Lifetime)
                } else {
                    // A stray quote (macro fragment); emit it as punct
                    // rather than failing the whole file.
                    self.i += 1;
                    Ok(TokKind::Punct)
                }
            }
            None => Err((sl, sc)),
        }
    }
}

/// Tokenizes `text`. Whitespace is skipped; comments are kept (passes
/// that only want code filter on [`TokKind`]). Fails only on
/// unterminated strings/chars/block comments — valid Rust always
/// lexes.
pub fn lex(text: &str) -> Result<Vec<Token<'_>>, LexError> {
    let mut lx = Lexer { text, b: text.as_bytes(), i: 0, line: 1, line_start: 0 };
    // Rust source averages five to six bytes per token, so this covers
    // nearly every file without a regrowth.
    let mut out = Vec::with_capacity(text.len() / 4);
    while lx.i < lx.b.len() {
        let b = lx.b[lx.i];
        if b.is_ascii_whitespace() {
            lx.bump();
            continue;
        }
        let (start, line, col) = (lx.i, lx.line, lx.col(lx.i));
        let kind = match b {
            b'/' if lx.b.get(lx.i + 1) == Some(&b'/') => {
                lx.line_comment();
                TokKind::LineComment
            }
            b'/' if lx.b.get(lx.i + 1) == Some(&b'*') => match lx.block_comment() {
                Ok(()) => TokKind::BlockComment,
                Err((l, c)) => return Err(lx.err(start, l, c, "unterminated block comment")),
            },
            b'"' => match lx.quoted(b'"') {
                Ok(()) => TokKind::Str,
                Err((l, c)) => return Err(lx.err(start, l, c, "unterminated string literal")),
            },
            b'\'' => match lx.char_or_lifetime() {
                Ok(kind) => kind,
                Err((l, c)) => return Err(lx.err(start, l, c, "unterminated char literal")),
            },
            b if b.is_ascii_digit() => {
                lx.number();
                TokKind::Number
            }
            b if is_ident_start(b) => {
                while lx.i < lx.b.len() && is_ident_continue(lx.b[lx.i]) {
                    lx.i += 1;
                }
                let ident = &text[start..lx.i];
                match lx.b.get(lx.i) {
                    // String prefixes: r"…", b"…", br#"…"#, c"…", cr"…".
                    Some(b'"') if matches!(ident, "r" | "b" | "br" | "c" | "cr") => {
                        match lx.quoted_or_raw(ident) {
                            Ok(()) => TokKind::Str,
                            Err((l, c)) => {
                                return Err(lx.err(start, l, c, "unterminated string literal"))
                            }
                        }
                    }
                    Some(b'#') if matches!(ident, "r" | "br" | "cr") => {
                        // `r#"…"#` raw string, or `r#ident` raw identifier.
                        let mut j = lx.i;
                        while lx.b.get(j) == Some(&b'#') {
                            j += 1;
                        }
                        if lx.b.get(j) == Some(&b'"') {
                            match lx.raw_string() {
                                Ok(()) => TokKind::Str,
                                Err((l, c)) => {
                                    return Err(lx.err(start, l, c, "unterminated raw string"))
                                }
                            }
                        } else if ident == "r"
                            && lx.b.get(lx.i + 1).copied().is_some_and(is_ident_start)
                        {
                            lx.i += 1;
                            while lx.i < lx.b.len() && is_ident_continue(lx.b[lx.i]) {
                                lx.i += 1;
                            }
                            TokKind::Ident
                        } else {
                            TokKind::Ident
                        }
                    }
                    // Byte-char literal: b'x'.
                    Some(b'\'') if ident == "b" => match lx.quoted(b'\'') {
                        Ok(()) => TokKind::Char,
                        Err((l, c)) => {
                            return Err(lx.err(start, l, c, "unterminated byte-char literal"))
                        }
                    },
                    _ => TokKind::Ident,
                }
            }
            _ => {
                lx.bump();
                TokKind::Punct
            }
        };
        out.push(Token { kind, text: &text[start..lx.i], line, col, start, end: lx.i });
    }
    Ok(out)
}

impl Lexer<'_> {
    /// Dispatches a prefixed string whose quote `self.i` sits on:
    /// raw prefixes re-use the raw scanner, escaping prefixes the
    /// quoted scanner.
    fn quoted_or_raw(&mut self, prefix: &str) -> Result<(), (usize, usize)> {
        if prefix.contains('r') {
            self.raw_string()
        } else {
            self.quoted(b'"')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).expect("lexes").into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_punct() {
        assert_eq!(
            kinds("let x = 1_000u64;"),
            vec![
                (TokKind::Ident, "let"),
                (TokKind::Ident, "x"),
                (TokKind::Punct, "="),
                (TokKind::Number, "1_000u64"),
                (TokKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn floats_ranges_and_method_calls_split_correctly() {
        assert_eq!(
            kinds("1.5e-3 1..2 1.max(2) 0xFF"),
            vec![
                (TokKind::Number, "1.5e-3"),
                (TokKind::Number, "1"),
                (TokKind::Punct, "."),
                (TokKind::Punct, "."),
                (TokKind::Number, "2"),
                (TokKind::Number, "1"),
                (TokKind::Punct, "."),
                (TokKind::Ident, "max"),
                (TokKind::Punct, "("),
                (TokKind::Number, "2"),
                (TokKind::Punct, ")"),
                (TokKind::Number, "0xFF"),
            ]
        );
    }

    #[test]
    fn strings_hide_comment_markers_and_code() {
        let toks = kinds(r##"let s = "no // comment"; let r = r#"panic!("x")"#;"##);
        let strs: Vec<&str> =
            toks.iter().filter(|(k, _)| *k == TokKind::Str).map(|(_, t)| *t).collect();
        assert_eq!(strs, vec!["\"no // comment\"", "r#\"panic!(\"x\")\"#"]);
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::LineComment));
    }

    #[test]
    fn escaped_quotes_and_byte_strings() {
        let toks = kinds(r#"("a\"b", b"bytes", b'x', '\'')"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(
            kinds("<'a, 'static> 'x' '\\n' 'outer: loop {}")
                .into_iter()
                .filter(|(k, _)| matches!(k, TokKind::Lifetime | TokKind::Char))
                .collect::<Vec<_>>(),
            vec![
                (TokKind::Lifetime, "'a"),
                (TokKind::Lifetime, "'static"),
                (TokKind::Char, "'x'"),
                (TokKind::Char, "'\\n'"),
                (TokKind::Lifetime, "'outer"),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* one /* two */ still one */ b");
        assert_eq!(
            toks,
            vec![
                (TokKind::Ident, "a"),
                (TokKind::BlockComment, "/* one /* two */ still one */"),
                (TokKind::Ident, "b"),
            ]
        );
    }

    #[test]
    fn raw_identifiers_are_idents() {
        assert_eq!(
            kinds("r#type r#fn"),
            vec![(TokKind::Ident, "r#type"), (TokKind::Ident, "r#fn")]
        );
    }

    #[test]
    fn spans_carry_lines_and_columns() {
        let toks = lex("fn f() {\n    x.read()\n}\n").expect("lexes");
        let read = toks.iter().find(|t| t.text == "read").expect("read token");
        assert_eq!(read.line, 2);
        assert_eq!(read.col, 7);
        let brace = toks.iter().find(|t| t.text == "}").expect("close brace");
        assert_eq!(brace.line, 3);
    }

    #[test]
    fn unterminated_constructs_error_with_position() {
        for (src, what) in [("\"abc", "string"), ("/* never closed", "comment"), ("r#\"raw", "raw")]
        {
            let e = lex(src).expect_err("must fail");
            assert_eq!(e.line, 1, "{src}");
            assert!(e.message.contains(what) || !what.is_empty(), "{src}: {e:?}");
        }
    }

    #[test]
    fn multiline_string_tracks_lines() {
        let toks = lex("let s = \"line\nbreak\";\nnext").expect("lexes");
        let next = toks.iter().find(|t| t.text == "next").expect("next");
        assert_eq!(next.line, 3);
    }
}
