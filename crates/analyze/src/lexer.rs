//! A minimal Rust lexer for the determinism lint pass.
//!
//! This is deliberately *not* a full Rust lexer: it understands exactly
//! enough of the language to strip the places where rule patterns must
//! never fire — line comments, nested block comments, string / raw-string
//! / byte-string / char literals — and to keep line numbers so findings
//! carry usable spans. Everything else is reduced to a flat stream of
//! identifier, number, lifetime and punctuation tokens.
//!
//! The subtle cases the test corpus pins down:
//!
//! * nested block comments (`/* a /* b */ c */`),
//! * raw strings with hash fences (`r##"…"…"##`), including byte raw
//!   strings (`br#"…"#`),
//! * `'a` lifetimes vs `'a'` char literals vs `'\''` escapes,
//! * multi-line and escape-laden ordinary strings.

/// What a token is. Rules match on identifiers and punctuation; literal
/// tokens exist so their *contents* are provably out of reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fs`, `as`, `partial_cmp`, ...).
    Ident,
    /// Numeric literal (the text is not retained).
    Num,
    /// String literal of any flavor; `text` holds the contents.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Any other single character.
    Punct(char),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Text for [`TokKind::Ident`] and [`TokKind::Str`]; empty otherwise.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        matches!(self.kind, TokKind::Ident).then_some(self.text.as_str())
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One `//` line comment (block comments are discarded: suppression
/// directives are line comments by definition, so only these matter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Text after the `//` marker.
    pub text: String,
}

/// The lexed form of one source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub toks: Vec<Tok>,
    /// Line comments, in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and line comments.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment { line, text: chars[start..j].iter().collect() });
            i = j;
            continue;
        }
        // Nested block comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    if chars[j] == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Raw / byte string prefixes: r"…", r#"…"#, b"…", br#"…"#, b'…'.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && j < n && chars[j] == 'r' {
                j += 1;
            }
            let hashes_start = j;
            while j < n && chars[j] == '#' {
                j += 1;
            }
            let hashes = j - hashes_start;
            // Raw string: an `r` prefix (possibly after `b`) directly
            // followed by optional hashes and an opening quote. Anything
            // else (plain idents starting with r/b, raw identifiers)
            // falls through to the identifier path.
            let has_r = c == 'r' || (c == 'b' && i + 1 < n && chars[i + 1] == 'r');
            if has_r && j < n && chars[j] == '"' {
                let start_line = line;
                let (text, ni) = lex_raw_string(&chars, j + 1, hashes, &mut line);
                out.toks.push(Tok { kind: TokKind::Str, text, line: start_line });
                i = ni;
                continue;
            }
            if c == 'b' && i + 1 < n && chars[i + 1] == '"' {
                let start_line = line;
                let (text, ni) = lex_string(&chars, i + 2, &mut line);
                out.toks.push(Tok { kind: TokKind::Str, text, line: start_line });
                i = ni;
                continue;
            }
            if c == 'b' && i + 1 < n && chars[i + 1] == '\'' {
                let ni = lex_char(&chars, i + 2);
                out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
                i = ni;
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        if c == '"' {
            let start_line = line;
            let (text, ni) = lex_string(&chars, i + 1, &mut line);
            out.toks.push(Tok { kind: TokKind::Str, text, line: start_line });
            i = ni;
            continue;
        }
        if c == '\'' {
            // Lifetime (`'a`, `'_`) unless a closing quote follows the
            // single ident char (`'a'`), or the content is an escape.
            if i + 1 < n && chars[i + 1] == '\\' {
                let ni = lex_char(&chars, i + 1);
                out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
                i = ni;
                continue;
            }
            if i + 1 < n && is_ident_start(chars[i + 1]) {
                let mut j = i + 2;
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                if j < n && chars[j] == '\'' && j == i + 2 {
                    // 'x' — a one-character char literal.
                    out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
                    i = j + 1;
                    continue;
                }
                out.toks.push(Tok { kind: TokKind::Lifetime, text: String::new(), line });
                i = j;
                continue;
            }
            // Other char literal, e.g. '(' or '9'.
            let ni = lex_char(&chars, i + 1);
            out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
            i = ni;
            continue;
        }
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n {
                let d = chars[j];
                if is_ident_continue(d)
                    || (d == '.' && j + 1 < n && chars[j + 1].is_ascii_digit())
                {
                    j += 1;
                } else {
                    break;
                }
            }
            out.toks.push(Tok { kind: TokKind::Num, text: String::new(), line });
            i = j;
            continue;
        }
        out.toks.push(Tok { kind: TokKind::Punct(c), text: String::new(), line });
        i += 1;
    }
    out
}

/// Consumes an ordinary (escaped) string body starting after the opening
/// quote; returns the contents and the index after the closing quote.
fn lex_string(chars: &[char], start: usize, line: &mut usize) -> (String, usize) {
    let mut j = start;
    let mut text = String::new();
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                // Skip the escaped character wholesale (covers \" and \\).
                if j + 1 < chars.len() && chars[j + 1] == '\n' {
                    *line += 1;
                }
                j += 2;
            }
            '"' => return (text, j + 1),
            c => {
                if c == '\n' {
                    *line += 1;
                }
                text.push(c);
                j += 1;
            }
        }
    }
    (text, j)
}

/// Consumes a raw string body (after the opening quote) fenced by
/// `hashes` hash characters.
fn lex_raw_string(chars: &[char], start: usize, hashes: usize, line: &mut usize) -> (String, usize) {
    let mut j = start;
    let mut text = String::new();
    while j < chars.len() {
        if chars[j] == '"' {
            let fence = &chars[j + 1..(j + 1 + hashes).min(chars.len())];
            if fence.len() == hashes && fence.iter().all(|&h| h == '#') {
                return (text, j + 1 + hashes);
            }
        }
        if chars[j] == '\n' {
            *line += 1;
        }
        text.push(chars[j]);
        j += 1;
    }
    (text, j)
}

/// Consumes a char-literal body starting after the opening quote;
/// returns the index after the closing quote.
fn lex_char(chars: &[char], start: usize) -> usize {
    let mut j = start;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                j += 2;
                // Unicode escapes: '\u{1F600}'.
                if j < chars.len() && chars[j] == '{' {
                    while j < chars.len() && chars[j] != '}' {
                        j += 1;
                    }
                    j += 1;
                }
            }
            '\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strips_nested_block_comments() {
        let src = "a /* x /* y */ z */ b";
        assert_eq!(idents(src), vec!["a", "b"]);
    }

    #[test]
    fn line_numbers_cross_comments_and_strings() {
        let src = "a\n/* two\nlines */\nb\n\"multi\nline\"\nc";
        let l = lex(src);
        let lines: Vec<(String, usize)> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text.clone(), t.line))
            .collect();
        assert_eq!(lines, vec![("a".into(), 1), ("b".into(), 4), ("c".into(), 7)]);
    }

    #[test]
    fn raw_strings_with_hashes_hide_contents() {
        let src = r####"let x = r##"inner "quote"# still.unwrap() inside"## ; y"####;
        let l = lex(src);
        assert_eq!(
            l.toks.iter().filter(|t| t.kind == TokKind::Str).count(),
            1,
            "one raw string"
        );
        assert!(!idents(src).contains(&"unwrap".to_string()), "contents are opaque");
        assert!(idents(src).contains(&"y".to_string()), "lexing resumes after the fence");
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let q = '\\''; let s: &'static str = \"\"; }";
        let l = lex(src);
        let lifetimes = l.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let charlits = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 3, "'a, 'a, 'static");
        assert_eq!(charlits, 2, "'a' and '\\''");
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "let a = b\"bytes.unwrap()\"; let b2 = br#\"raw bytes\"#; let c = b'x'; tail";
        assert!(!idents(src).contains(&"unwrap".to_string()));
        let l = lex(src);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
        assert!(idents(src).contains(&"tail".to_string()));
    }

    #[test]
    fn line_comments_are_collected_with_lines() {
        let src = "x // first\ny\n// second\nz";
        let l = lex(src);
        let got: Vec<(usize, String)> =
            l.comments.iter().map(|c| (c.line, c.text.trim().to_string())).collect();
        assert_eq!(got, vec![(1, "first".into()), (3, "second".into())]);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = r#"let s = "he said \"hi\" loudly"; after"#;
        assert_eq!(idents(src), vec!["let", "s", "after"]);
    }

    #[test]
    fn numeric_literals_including_ranges() {
        let src = "let r = 0..5; let f = 1.5e3; let h = 0xFF_u32; t.0";
        let l = lex(src);
        // `0..5` must not glue into one number that eats the range dots.
        let dots = l.toks.iter().filter(|t| t.is_punct('.')).count();
        assert!(dots >= 3, "range dots plus the field access survive: {dots}");
        assert!(idents(src).contains(&"t".to_string()));
    }
}
