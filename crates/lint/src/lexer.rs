//! A small hand-rolled lexer for Rust source.
//!
//! The lints in this crate only need a token stream that is *safe to pattern
//! match*: comments and literal contents must never be mistaken for code
//! (a doc comment that says "this panics" is not a `panic!`, and the lint's
//! own deny-lists live in string literals, so the workspace self-lint would
//! deadlock on itself without this). The lexer therefore produces:
//!
//! - a stream of [`Token`]s: identifiers, punctuation, and string literals
//!   (string *values* are kept because the failpoint-registry lint needs
//!   `fail_point!("name")` site names and chaos-suite arm literals);
//! - the list of [`Comment`]s, kept separately, because the suppression
//!   grammar (`// lint: allow(..)`) and the `// lint: hot-path` marker live
//!   in comments.
//!
//! Handled forms: `//` and `/*…*/` (nested) comments, `"…"` and `b"…"`
//! strings with escapes, `r"…"`/`r#"…"#`/`br#"…"#` raw strings, `'c'` and
//! `b'c'` char literals, and `'lifetime` quotes (which are *not* char
//! literals and must not swallow code).

/// One lexed token. Numbers and whitespace are skipped: no lint needs them.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    /// An identifier or keyword, borrowed from the source.
    Word(&'a str),
    /// The decoded value of a string literal (escapes resolved best-effort).
    Str(String),
    /// A single punctuation character (`.`, `!`, `{`, …).
    Punct(char),
}

/// A token plus where it came from.
#[derive(Debug, Clone)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    /// 1-based source line.
    pub line: u32,
}

/// A comment with its delimiters stripped and the text trimmed.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment *starts* on.
    pub line: u32,
    pub text: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    pub tokens: Vec<Token<'a>>,
    pub comments: Vec<Comment>,
}

pub fn lex(src: &str) -> Lexed<'_> {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Count newlines in `bytes[from..to]` and advance the line counter.
    let count_lines = |bytes: &[u8], from: usize, to: usize, line: &mut u32| {
        *line += bytes[from..to].iter().filter(|&&b| b == b'\n').count() as u32;
    };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                let text = src[start..j].trim_start_matches(['/', '!']).trim();
                out.comments.push(Comment {
                    line,
                    text: text.to_string(),
                });
                i = j;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let comment_line = line;
                let start = i + 2;
                let mut depth = 1usize;
                let mut j = start;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && j + 1 < bytes.len() && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && j + 1 < bytes.len() && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: comment_line,
                    text: src[start..end].trim().to_string(),
                });
                count_lines(bytes, i, j, &mut line);
                i = j;
            }
            b'"' => {
                let (value, j) = scan_string(src, i + 1);
                out.tokens.push(Token {
                    tok: Tok::Str(value),
                    line,
                });
                count_lines(bytes, i, j, &mut line);
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime. `'\…'` and `'c'` are literals;
                // `'ident` (no closing quote right after one char) is a
                // lifetime and the quote is simply dropped.
                if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                    let mut j = i + 2;
                    if j < bytes.len() {
                        j += 1; // escaped char (handles \' and \\)
                    }
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1; // \u{…} and friends
                    }
                    i = j + 1;
                } else {
                    // One UTF-8 scalar followed by a closing quote?
                    let rest = &src[i + 1..];
                    let mut chars = rest.chars();
                    match (chars.next(), chars.next()) {
                        (Some(c), Some('\'')) => i += 1 + c.len_utf8() + 1,
                        _ => i += 1, // lifetime quote
                    }
                }
            }
            b'r' | b'b' if is_literal_prefix(bytes, i) => {
                let (skip, j) = scan_prefixed_literal(src, i);
                if let Some(value) = skip {
                    out.tokens.push(Token {
                        tok: Tok::Str(value),
                        line,
                    });
                }
                count_lines(bytes, i, j, &mut line);
                i = j;
            }
            _ if b == b'_' || b.is_ascii_alphabetic() => {
                let start = i;
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Word(&src[start..j]),
                    line,
                });
                i = j;
            }
            _ if b.is_ascii_digit() => {
                // Numbers are skipped, but consume the whole literal so that
                // suffixes (`1usize`) don't leak a Word, and `.0` tuple access
                // still yields its `.` punct first.
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && bytes[j + 1].is_ascii_digit()
                {
                    j += 2;
                    while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric())
                    {
                        j += 1;
                    }
                }
                i = j;
            }
            _ => {
                if b.is_ascii() {
                    out.tokens.push(Token {
                        tok: Tok::Punct(b as char),
                        line,
                    });
                    i += 1;
                } else {
                    // Skip a non-ASCII scalar (only appears in docs/strings
                    // in practice, but stay panic-free on arbitrary input).
                    let c = src[i..].chars().next().unwrap_or('\u{fffd}');
                    i += c.len_utf8().max(1);
                }
            }
        }
    }
    out
}

/// Scan a `"…"` body starting *after* the opening quote. Returns the decoded
/// value and the index just past the closing quote.
fn scan_string(src: &str, start: usize) -> (String, usize) {
    let bytes = src.as_bytes();
    let mut value = String::new();
    let mut j = start;
    while j < bytes.len() {
        match bytes[j] {
            b'"' => return (value, j + 1),
            b'\\' if j + 1 < bytes.len() => {
                match bytes[j + 1] {
                    b'n' => value.push('\n'),
                    b't' => value.push('\t'),
                    b'r' => value.push('\r'),
                    b'0' => value.push('\0'),
                    b'\\' => value.push('\\'),
                    b'"' => value.push('"'),
                    b'\'' => value.push('\''),
                    // \u{…}, \xNN, or a line-continuation: drop the escape;
                    // no lint compares strings containing these.
                    _ => {}
                }
                j += 2;
            }
            _ => {
                let c = src[j..].chars().next().unwrap_or('\u{fffd}');
                value.push(c);
                j += c.len_utf8().max(1);
            }
        }
    }
    (value, j)
}

/// Is the `r`/`b` at `i` the start of a literal (`r"`, `r#`, `b"`, `b'`,
/// `br"`, `br#`) rather than a plain identifier?
fn is_literal_prefix(bytes: &[u8], i: usize) -> bool {
    // Not a prefix if the previous byte continues an identifier (e.g. `ptr` or
    // `attr` ending in `r` followed by `"` would be misread otherwise — that
    // cannot happen because the previous char would have consumed the `r`, but
    // guard anyway).
    if i > 0 && (bytes[i - 1] == b'_' || bytes[i - 1].is_ascii_alphanumeric()) {
        return false;
    }
    let next = |k: usize| bytes.get(i + k).copied();
    match bytes[i] {
        b'r' => matches!(next(1), Some(b'"') | Some(b'#')),
        b'b' => match next(1) {
            Some(b'"') | Some(b'\'') => true,
            Some(b'r') => matches!(next(2), Some(b'"') | Some(b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Scan `r"…"`, `r#"…"#`, `b"…"`, `b'c'`, `br#"…"#` starting at the prefix.
/// Returns `(Some(value), end)` for string-like literals, `(None, end)` for
/// byte-char literals.
fn scan_prefixed_literal(src: &str, start: usize) -> (Option<String>, usize) {
    let bytes = src.as_bytes();
    let mut i = start;
    let mut raw = false;
    if bytes[i] == b'b' {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'r' {
        raw = true;
        i += 1;
    }
    if !raw && i < bytes.len() && bytes[i] == b'\'' {
        // b'c' byte-char literal.
        let mut j = i + 1;
        if j < bytes.len() && bytes[j] == b'\\' {
            j += 2;
        } else {
            j += 1;
        }
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return (None, j + 1);
    }
    if raw {
        let mut hashes = 0usize;
        while i < bytes.len() && bytes[i] == b'#' {
            hashes += 1;
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'"' {
            // `r#ident` raw identifier: treat the `r#` as consumed, the
            // identifier lexes on the next loop iteration.
            return (None, i);
        }
        let body_start = i + 1;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        let mut j = body_start;
        while j < bytes.len() {
            if bytes[j] == b'"' && bytes[j..].starts_with(&closer) {
                return (Some(src[body_start..j].to_string()), j + closer.len());
            }
            j += 1;
        }
        (Some(src[body_start..].to_string()), j)
    } else {
        // b"…" — same escape rules as a plain string.
        debug_assert_eq!(bytes.get(i), Some(&b'"'));
        let (value, j) = scan_string(src, i + 1);
        (Some(value), j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Word(w) => Some(w.to_string()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_not_code() {
        let src = "// calls panic!\n/* unwrap() here */\nlet x = 1;";
        assert_eq!(words(src), ["let", "x"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].text, "calls panic!");
        assert_eq!(lexed.comments[0].line, 1);
    }

    #[test]
    fn strings_are_values_not_code() {
        let src = r#"let s = "unwrap() \" quoted"; s.len();"#;
        let lexed = lex(src);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(v) if v == "unwrap() \" quoted")));
        assert_eq!(words(src), ["let", "s", "s", "len"]);
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = r###"let s = r#"a "b" c"#; x"###;
        let lexed = lex(src);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| matches!(&t.tok, Tok::Str(v) if v == "a \"b\" c")));
        assert_eq!(words(src), ["let", "s", "x"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) { x.unwrap() }";
        assert!(words(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literals_are_skipped() {
        let src = "let c = 'x'; let q = '\\''; let n = '\\n'; c.clone()";
        let w = words(src);
        assert!(w.contains(&"clone".to_string()));
        assert!(!w.contains(&"x".to_string()));
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nfoo();";
        let lexed = lex(src);
        let foo = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Word(w) if *w == "foo"))
            .expect("foo token");
        assert_eq!(foo.line, 3);
    }

    #[test]
    fn numbers_with_suffixes_vanish() {
        assert_eq!(words("let x = 1usize + 2.5f64 + 0xff;"), ["let", "x"]);
    }
}
