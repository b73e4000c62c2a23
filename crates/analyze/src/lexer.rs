//! A minimal Rust lexer: source text → significant tokens with line
//! numbers.
//!
//! String contents (including raw strings like `r#"…"#` with arbitrary
//! hash counts), char literals and comments (including *nested*
//! `/* /* */ */` block comments) never produce code tokens, so prose that
//! mentions `.lock()` or `check_budget()` cannot trip a rule.
//!
//! The lexer is deliberately lenient: it never fails. Malformed input
//! (e.g. an unterminated string) lexes to *something* reasonable; the
//! compiler is the authority on validity, the analyzer only needs token
//! boundaries that match rustc's on code rustc accepts.

/// A significant (non-trivia) token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `unsafe`, `Mutex`, …).
    Ident(String),
    /// A lifetime such as `'a` (the text is not needed by any rule).
    Lifetime,
    /// Any literal: string, raw string, byte string, char, number.
    /// Contents are opaque to every rule by design.
    Lit,
    /// A single punctuation character; multi-char operators appear as
    /// adjacent tokens (`::` is `Punct(':') Punct(':')`).
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.tok, Tok::Ident(t) if t == s)
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self) -> u8 {
        self.peek_at(0)
    }

    fn peek_at(&self, ahead: usize) -> u8 {
        self.bytes.get(self.pos + ahead).copied().unwrap_or(0)
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn slice(&self, start: usize) -> &'a str {
        let end = self.pos.min(self.bytes.len());
        let start = start.min(end);
        std::str::from_utf8(&self.bytes[start..end]).unwrap_or("")
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens. Never fails.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while !cur.done() {
        let b = cur.peek();
        let line = cur.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == b'/' => {
                while !cur.done() && cur.peek() != b'\n' {
                    cur.bump();
                }
            }
            b'/' if cur.peek_at(1) == b'*' => {
                cur.bump();
                cur.bump();
                // Block comments nest in Rust.
                let mut depth = 1usize;
                while !cur.done() && depth > 0 {
                    if cur.peek() == b'/' && cur.peek_at(1) == b'*' {
                        cur.bump();
                        cur.bump();
                        depth += 1;
                    } else if cur.peek() == b'*' && cur.peek_at(1) == b'/' {
                        cur.bump();
                        cur.bump();
                        depth -= 1;
                    } else {
                        cur.bump();
                    }
                }
            }
            b'"' => {
                lex_string(&mut cur);
                out.push(Token {
                    tok: Tok::Lit,
                    line,
                });
            }
            b'\'' => lex_char_or_lifetime(&mut cur, &mut out, line),
            b'0'..=b'9' => {
                lex_number(&mut cur);
                out.push(Token {
                    tok: Tok::Lit,
                    line,
                });
            }
            b if is_ident_start(b) => {
                let start = cur.pos;
                while is_ident_continue(cur.peek()) {
                    cur.bump();
                }
                let text = cur.slice(start);
                // String-literal prefixes: r"", r#""#, b"", br"", c"", cr"".
                if matches!(text, "r" | "b" | "br" | "c" | "cr") {
                    let raw = matches!(text, "r" | "br" | "cr");
                    if try_lex_prefixed_string(&mut cur, raw) {
                        out.push(Token {
                            tok: Tok::Lit,
                            line,
                        });
                        continue;
                    }
                    // `b'x'` byte char literal.
                    if text == "b" && cur.peek() == b'\'' {
                        cur.bump();
                        lex_char_body(&mut cur);
                        out.push(Token {
                            tok: Tok::Lit,
                            line,
                        });
                        continue;
                    }
                    // `r#ident` raw identifier.
                    if text == "r" && cur.peek() == b'#' && is_ident_start(cur.peek_at(1)) {
                        cur.bump();
                        let istart = cur.pos;
                        while is_ident_continue(cur.peek()) {
                            cur.bump();
                        }
                        out.push(Token {
                            tok: Tok::Ident(cur.slice(istart).to_string()),
                            line,
                        });
                        continue;
                    }
                }
                out.push(Token {
                    tok: Tok::Ident(text.to_string()),
                    line,
                });
            }
            _ => {
                cur.bump();
                out.push(Token {
                    tok: Tok::Punct(b as char),
                    line,
                });
            }
        }
    }
    out
}

/// Consumes a normal `"…"` string body starting at the opening quote.
fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while !cur.done() {
        match cur.bump() {
            b'\\' => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

/// After a string prefix ident (`r`, `br`, …), tries to consume the rest
/// of the literal. Returns false (consuming nothing) if what follows is
/// not a string.
fn try_lex_prefixed_string(cur: &mut Cursor<'_>, allow_raw: bool) -> bool {
    if cur.peek() == b'"' {
        if allow_raw {
            lex_raw_string(cur, 0);
        } else {
            lex_string(cur);
        }
        return true;
    }
    if allow_raw && cur.peek() == b'#' {
        // Count hashes; raw string only if a quote follows them.
        let mut hashes = 0usize;
        while cur.peek_at(hashes) == b'#' {
            hashes += 1;
        }
        if cur.peek_at(hashes) == b'"' {
            for _ in 0..hashes {
                cur.bump();
            }
            lex_raw_string(cur, hashes);
            return true;
        }
    }
    false
}

/// Consumes `"…"###` (the opening quote onward) for a raw string with
/// `hashes` hashes. Raw strings have no escapes.
fn lex_raw_string(cur: &mut Cursor<'_>, hashes: usize) {
    cur.bump(); // opening quote
    while !cur.done() {
        if cur.bump() == b'"' {
            let mut n = 0usize;
            while n < hashes && cur.peek_at(n) == b'#' {
                n += 1;
            }
            if n == hashes {
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
    }
}

/// Consumes the body of a char literal after its opening `'`.
fn lex_char_body(cur: &mut Cursor<'_>) {
    while !cur.done() {
        match cur.bump() {
            b'\\' => {
                cur.bump();
            }
            b'\'' => break,
            _ => {}
        }
    }
}

/// Disambiguates `'a'` (char literal) from `'a` (lifetime) from `'\n'`.
fn lex_char_or_lifetime(cur: &mut Cursor<'_>, out: &mut Vec<Token>, line: u32) {
    cur.bump(); // the quote
    if cur.peek() == b'\\' {
        lex_char_body(cur);
        out.push(Token {
            tok: Tok::Lit,
            line,
        });
        return;
    }
    if is_ident_start(cur.peek()) {
        // Could be `'a'` (char) or `'abc` (lifetime): consume the ident,
        // then check for a closing quote.
        while is_ident_continue(cur.peek()) {
            cur.bump();
        }
        if cur.peek() == b'\'' {
            cur.bump();
            out.push(Token {
                tok: Tok::Lit,
                line,
            });
        } else {
            out.push(Token {
                tok: Tok::Lifetime,
                line,
            });
        }
        return;
    }
    // `'('`, `' '`, etc: a single-char literal.
    lex_char_body(cur);
    out.push(Token {
        tok: Tok::Lit,
        line,
    });
}

/// Consumes a numeric literal (integer or float, any base/suffix).
fn lex_number(cur: &mut Cursor<'_>) {
    while is_ident_continue(cur.peek()) {
        cur.bump();
    }
    // Fractional part: `.` followed by a digit (so `0..n` stays a range).
    if cur.peek() == b'.' && cur.peek_at(1).is_ascii_digit() {
        cur.bump();
        while is_ident_continue(cur.peek()) {
            cur.bump();
        }
    }
    // Signed exponent (`1e-5`); unsigned exponents were consumed above.
    if (cur.peek() == b'-' || cur.peek() == b'+')
        && matches!(cur.bytes.get(cur.pos.wrapping_sub(1)), Some(b'e' | b'E'))
        && cur.peek_at(1).is_ascii_digit()
    {
        cur.bump();
        while is_ident_continue(cur.peek()) {
            cur.bump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn raw_strings_are_opaque() {
        // The old strip_noise mishandled `r#"…"#`: it entered string mode
        // at the first quote and exited at the *embedded* quote, leaking
        // the tail as code.
        let src = r##"fn f() { let s = r#"call .unwrap() or panic!( "quoted" here"#; }"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(!ids.contains(&"panic".to_string()), "{ids:?}");
        assert!(ids.contains(&"f".to_string()));
    }

    #[test]
    fn raw_strings_with_many_hashes_terminate_correctly() {
        let src = r####"let a = r##"inner "# quote"##; let tail = 1;"####;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "tail"]);
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        // The old scanner ended the comment at the first `*/`, leaking
        // `x.unwrap()` into code.
        let src = "/* outer /* inner */ x.unwrap() */ fn ok() {}";
        assert_eq!(idents(src), vec!["fn", "ok"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lexed = lex("fn g<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        let lifetimes = lexed.iter().filter(|t| t.tok == Tok::Lifetime).count();
        assert_eq!(lifetimes, 2);
        let lits = lexed.iter().filter(|t| t.tok == Tok::Lit).count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn byte_and_c_strings_are_literals() {
        let src = r###"let a = b"bytes"; let b = br#"raw .expect( bytes"#; let c = b'x';"###;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ids = idents("let r#type = 1;");
        assert_eq!(ids, vec!["let", "type"]);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let lexed = lex("a\nb\n  c");
        let lines: Vec<u32> = lexed.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn multiline_strings_advance_lines() {
        let lexed = lex("let s = \"one\ntwo\";\nnext");
        let next = lexed.iter().find(|t| t.is_ident("next")).map(|t| t.line);
        assert_eq!(next, Some(3));
    }

    #[test]
    fn doc_comments_are_trivia() {
        let ids = idents("/// calls .unwrap() when\n//! panic!( docs\nfn f() {}");
        assert_eq!(ids, vec!["fn", "f"]);
    }

    #[test]
    fn floats_and_ranges() {
        let lexed = lex("1.5 0..10 1e-5");
        let lits = lexed.iter().filter(|t| t.tok == Tok::Lit).count();
        // 1.5, 0, 10, 1e-5 — the `..` stays punctuation.
        assert_eq!(lits, 4);
        let dots = lexed.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }
}
