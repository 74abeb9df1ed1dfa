//! A hand-rolled, total lexer for Rust source text.
//!
//! The lexer is the foundation every `pp_lint` rule stands on: rules
//! never see raw source, only the token stream, so string literals and
//! comments can never masquerade as code (`"Ordering::Relaxed"` inside
//! a test string must not trip `relaxed-ordering-audit`). Two properties are load
//! bearing and property-tested (`tests/lexer_props.rs`):
//!
//! * **Totality** — the lexer accepts *arbitrary bytes* (not just valid
//!   UTF-8, not just valid Rust) and never panics: a linter that dies on
//!   the weird file is a linter that gets disabled.
//! * **Round-tripping** — the emitted tokens tile the input exactly:
//!   concatenating every token's text reproduces the byte string. This
//!   makes token positions trustworthy for reporting and guarantees no
//!   byte is silently skipped.
//!
//! The token model is deliberately coarse (single-byte punctuation, no
//! keyword distinction, numbers as fuzzy alphanumeric runs): rules match
//! token *sequences*, so `::` is simply two `:` tokens. What the lexer
//! must get exactly right are the trivia boundaries — nested block
//! comments, raw strings with arbitrary `#` fences, byte/char literals,
//! and the `'a` lifetime vs `'a'` char-literal split — because those are
//! the places where naive regex linting misfires.

/// The classification of one [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of ASCII whitespace.
    Whitespace,
    /// A `//` comment up to (excluding) the newline; includes `///` and
    /// `//!` doc comments.
    LineComment,
    /// A `/* ... */` comment, nesting tracked; an unterminated comment
    /// extends to the end of input.
    BlockComment,
    /// An identifier or keyword (including raw `r#idents`); bytes ≥ 0x80
    /// are treated as identifier characters, which groups any UTF-8
    /// sequence into the surrounding word.
    Ident,
    /// A lifetime such as `'a` or `'_` (no closing quote).
    Lifetime,
    /// A character or byte literal (`'x'`, `b'\n'`); an unterminated one
    /// ends at the line break.
    Char,
    /// A string or byte-string literal (`"…"`, `b"…"`); an unterminated
    /// one extends to the end of input.
    Str,
    /// A raw (byte) string literal (`r"…"`, `br##"…"##`); an
    /// unterminated one extends to the end of input.
    RawStr,
    /// A numeric literal: a digit-led alphanumeric run, optionally with
    /// one fraction part (`1_000`, `0xFF`, `1.5e3`).
    Number,
    /// A single ASCII punctuation byte (`::` is two `:` tokens).
    Punct,
    /// Any other single byte (stray control or non-UTF-8 byte outside a
    /// literal).
    Unknown,
}

/// One lexed token: a classified byte range of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The classification.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

impl Token {
    /// The token's bytes within `src`.
    #[must_use]
    pub fn bytes<'a>(&self, src: &'a [u8]) -> &'a [u8] {
        &src[self.start..self.end]
    }

    /// The token's text within `src`, or `""` when it is not UTF-8
    /// (rules compare against ASCII words, so non-UTF-8 simply never
    /// matches).
    #[must_use]
    pub fn text<'a>(&self, src: &'a [u8]) -> &'a str {
        std::str::from_utf8(self.bytes(src)).unwrap_or("")
    }

    /// Whether the token is whitespace or a comment.
    #[must_use]
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes arbitrary bytes into a token stream that tiles the input.
///
/// Never panics; see the module docs for the guarantees.
#[must_use]
pub fn lex(src: &[u8]) -> Vec<Token> {
    Lexer {
        src,
        pos: 0,
        line: 1,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        let mut tokens = Vec::new();
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            tokens.push(Token {
                kind,
                start,
                end: self.pos,
                line,
            });
        }
        tokens
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Consumes `n` bytes, keeping the line counter in step.
    fn bump(&mut self, n: usize) {
        let end = (self.pos + n).min(self.src.len());
        for &b in &self.src[self.pos..end] {
            if b == b'\n' {
                self.line += 1;
            }
        }
        self.pos = end;
    }

    fn next_kind(&mut self) -> TokenKind {
        let b = self.src[self.pos];
        match b {
            b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
            b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
            _ if b.is_ascii_whitespace() => self.whitespace(),
            b'r' | b'b' => self.ident_or_prefixed_literal(),
            _ if is_ident_start(b) => self.ident(),
            _ if b.is_ascii_digit() => self.number(),
            b'\'' => self.lifetime_or_char(),
            b'"' => self.string(),
            _ => {
                self.bump(1);
                if b.is_ascii() {
                    TokenKind::Punct
                } else {
                    TokenKind::Unknown
                }
            }
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump(1);
        }
        TokenKind::LineComment
    }

    fn block_comment(&mut self) -> TokenKind {
        self.bump(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump(2);
                }
                (Some(_), _) => self.bump(1),
                (None, _) => break, // unterminated: extend to EOF
            }
        }
        TokenKind::BlockComment
    }

    fn whitespace(&mut self) -> TokenKind {
        while self.peek(0).is_some_and(|b| b.is_ascii_whitespace()) {
            self.bump(1);
        }
        TokenKind::Whitespace
    }

    /// Handles the `r` / `b` prefixes: raw strings (`r"…"`, `r#"…"#`),
    /// byte strings (`b"…"`, `br"…"`), byte chars (`b'…'`), raw idents
    /// (`r#ident`), or a plain identifier when none of those follow.
    fn ident_or_prefixed_literal(&mut self) -> TokenKind {
        let b = self.src[self.pos];
        let mut probe = 1usize; // bytes of prefix before the fences
        if b == b'b' {
            match self.peek(1) {
                Some(b'\'') => {
                    self.bump(1);
                    return self.lifetime_or_char(); // b'…' byte char
                }
                Some(b'"') => {
                    self.bump(1);
                    return self.string(); // b"…" byte string
                }
                Some(b'r') => probe = 2, // maybe br"…" / br#"…"#
                _ => return self.ident(),
            }
        }
        // At `r` (probe 1) or `br` (probe 2): raw string if `#`s then `"`.
        let mut hashes = 0usize;
        while self.peek(probe + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(probe + hashes) == Some(b'"') {
            self.bump(probe + hashes + 1);
            return self.raw_string_tail(hashes);
        }
        if b == b'r' && hashes >= 1 && self.peek(2).is_some_and(is_ident_start) {
            // Raw identifier `r#ident` (only a single `#` is valid; more
            // would be rejected by rustc, but lexing greedily is fine).
            self.bump(2);
            return self.ident();
        }
        self.ident()
    }

    /// Consumes a raw-string body until `"` followed by `hashes` `#`s.
    fn raw_string_tail(&mut self, hashes: usize) -> TokenKind {
        while let Some(b) = self.peek(0) {
            if b == b'"' && (1..=hashes).all(|i| self.peek(i) == Some(b'#')) {
                self.bump(1 + hashes);
                return TokenKind::RawStr;
            }
            self.bump(1);
        }
        TokenKind::RawStr // unterminated: extend to EOF
    }

    fn ident(&mut self) -> TokenKind {
        self.bump(1);
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump(1);
        }
        TokenKind::Ident
    }

    fn number(&mut self) -> TokenKind {
        self.bump(1);
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump(1);
        }
        // One fraction part, only when a digit follows the dot — `1..4`
        // and `x.0` tuple indexing stay separate tokens.
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump(1);
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump(1);
            }
        }
        TokenKind::Number
    }

    /// Disambiguates `'a` (lifetime) from `'a'` (char literal) at a `'`.
    fn lifetime_or_char(&mut self) -> TokenKind {
        if self.peek(1).is_some_and(is_ident_start) && self.peek(2) != Some(b'\'') {
            // `'ident` not followed by a closing quote: a lifetime (or a
            // loop label). Multi-byte chars like 'é' hit this arm too —
            // harmless, the token ends before the closing quote, which
            // lexes as the start of the next quoted token.
            self.bump(2);
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump(1);
            }
            return TokenKind::Lifetime;
        }
        // Char literal: consume escapes; never cross a line break (chars
        // cannot contain raw newlines, and stopping keeps an unpaired
        // quote from swallowing the rest of the file).
        self.bump(1);
        while let Some(b) = self.peek(0) {
            match b {
                b'\'' => {
                    self.bump(1);
                    break;
                }
                b'\n' => break, // unterminated
                b'\\' => self.bump(if self.peek(1).is_some() { 2 } else { 1 }),
                _ => self.bump(1),
            }
        }
        TokenKind::Char
    }

    fn string(&mut self) -> TokenKind {
        self.bump(1);
        while let Some(b) = self.peek(0) {
            match b {
                b'"' => {
                    self.bump(1);
                    break;
                }
                b'\\' => self.bump(if self.peek(1).is_some() { 2 } else { 1 }),
                _ => self.bump(1),
            }
        }
        TokenKind::Str // unterminated: extends to EOF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokenKind, String)> {
        lex(src.as_bytes())
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text(src.as_bytes()).to_string()))
            .collect()
    }

    #[test]
    fn tiles_simple_source() {
        let src = "fn main() { let x = 1.5; }";
        let toks = lex(src.as_bytes());
        let rebuilt: Vec<u8> = toks
            .iter()
            .flat_map(|t| t.bytes(src.as_bytes()).to_vec())
            .collect();
        assert_eq!(rebuilt, src.as_bytes());
    }

    #[test]
    fn lifetime_vs_char() {
        assert_eq!(
            texts("&'a str 'x' '\\n' '_ b'q'"),
            vec![
                (TokenKind::Punct, "&".into()),
                (TokenKind::Lifetime, "'a".into()),
                (TokenKind::Ident, "str".into()),
                (TokenKind::Char, "'x'".into()),
                (TokenKind::Char, "'\\n'".into()),
                (TokenKind::Lifetime, "'_".into()),
                (TokenKind::Char, "b'q'".into()),
            ]
        );
    }

    #[test]
    fn raw_strings_hide_code() {
        let src = r####"let s = r#"x.unwrap() // not code"#; s"####;
        let toks = texts(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("unwrap")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still */ b";
        assert_eq!(
            texts(src),
            vec![
                (TokenKind::Ident, "a".into()),
                (TokenKind::Ident, "b".into()),
            ]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let src = "a\nb\n\ncd";
        let toks: Vec<(String, u32)> = lex(src.as_bytes())
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.text(src.as_bytes()).to_string(), t.line))
            .collect();
        assert_eq!(
            toks,
            vec![("a".into(), 1), ("b".into(), 2), ("cd".into(), 4)]
        );
    }
}
