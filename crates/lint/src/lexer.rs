//! A lightweight Rust lexer: just enough tokenization for the xlint rules.
//!
//! The lexer's one hard obligation is getting *boundaries* right — comments,
//! string literals (including raw and byte strings), char literals versus
//! lifetimes — so that a `Vec::new()` inside a doc comment or a format
//! string never counts as code. Everything else (numeric literal grammar, the full
//! operator set) is deliberately loose: the rules only ever look at
//! identifiers, a handful of multi-character operators (`::`, `=>`, `->`,
//! `..`) and single punctuation characters.

/// What a [`Token`] is, at the granularity the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`match`, `Vec`, `fn`, ...).
    Ident,
    /// A string, char, byte or numeric literal, kept verbatim.
    Literal,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation: one of the combined operators `::`, `=>`, `->`, `..`, or
    /// a single character.
    Punct,
}

/// One lexed token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// The token's text, verbatim.
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Token {
    /// `true` if the token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// `true` if the token is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// An in-source suppression: `// xlint: allow(RULE, reason = "...")`.
///
/// An annotation suppresses findings of `rule` on its *target line*: the line
/// the comment sits on if that line has code, otherwise the next line that
/// does. The `reason` is mandatory — [`crate::run_workspace`] reports
/// annotations without one (XLINT001).
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-indexed line of the comment itself.
    pub line: u32,
    /// The rule being allowed (e.g. `HOT001`), or the malformed text.
    pub rule: String,
    /// The justification string, if one was given.
    pub reason: Option<String>,
    /// `true` if the comment parsed as `allow(<rule>, ...)` at all.
    pub well_formed: bool,
}

/// A lexed source file: tokens plus the xlint annotations found in comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Every `// xlint:` annotation, in line order.
    pub annotations: Vec<Annotation>,
}

/// Lexes Rust source text.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let comment = &src[start..i];
                if let Some(ann) = parse_annotation(comment, line) {
                    out.annotations.push(ann);
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comments, as in real Rust.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (end, newlines) = scan_string(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: src[i..end].to_string(),
                    line,
                });
                line += newlines;
                i = end;
            }
            b'\'' => {
                let (end, kind) = scan_quote(bytes, i);
                out.tokens.push(Token {
                    kind,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let (end, kind, newlines) = scan_word(bytes, i);
                out.tokens.push(Token {
                    kind,
                    text: src[i..end].to_string(),
                    line,
                });
                line += newlines;
                i = end;
            }
            c if c.is_ascii_digit() => {
                let end = scan_number(bytes, i);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ => {
                let two = &bytes[i..(i + 2).min(bytes.len())];
                let text = match two {
                    b"::" | b"=>" | b"->" | b".." => {
                        i += 2;
                        String::from_utf8_lossy(two).into_owned()
                    }
                    _ => {
                        i += 1;
                        (c as char).to_string()
                    }
                };
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    out
}

/// Scans a `"..."` string literal starting at the opening quote. Returns the
/// index one past the closing quote and the number of newlines crossed.
fn scan_string(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut i = start + 1;
    let mut newlines = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            b'"' => return (i + 1, newlines),
            _ => i += 1,
        }
    }
    (i, newlines)
}

/// Scans a raw string `r"..."` / `r#"..."#` starting at the first `#` or `"`
/// after the `r` prefix. Returns one past the end and newlines crossed.
fn scan_raw_string(bytes: &[u8], start: usize) -> (usize, u32) {
    let mut i = start;
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return (i, 0); // not actually a raw string; let the caller re-lex
    }
    i += 1;
    let mut newlines = 0;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            newlines += 1;
            i += 1;
        } else if bytes[i] == b'"' && bytes[i + 1..].iter().take(hashes).all(|&b| b == b'#') {
            return (i + 1 + hashes, newlines);
        } else {
            i += 1;
        }
    }
    (i, newlines)
}

/// Scans from a `'`: either a char literal (`'x'`, `'\n'`) or a lifetime.
fn scan_quote(bytes: &[u8], start: usize) -> (usize, TokenKind) {
    let mut i = start + 1;
    if bytes.get(i) == Some(&b'\\') {
        // Escaped char literal; skip the escape then to the closing quote.
        i += 2;
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
        return ((i + 1).min(bytes.len()), TokenKind::Literal);
    }
    // A single-character literal of any character ('x', '"', '(' ...), but
    // not an empty pair `''` (invalid Rust) or a lifetime (`'a, 'b` has no
    // closing quote two bytes on).
    if bytes.get(i).is_some_and(|&b| b != b'\'') && bytes.get(i + 1) == Some(&b'\'') {
        return (i + 2, TokenKind::Literal);
    }
    let word_start = i;
    while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
        i += 1;
    }
    if i > word_start {
        (i, TokenKind::Lifetime) // 'a as in &'a T
    } else {
        // A bare quote (only valid inside macros); consume it alone.
        (start + 1, TokenKind::Punct)
    }
}

/// Scans an identifier, keyword, or prefixed literal (`r"..."`, `b"..."`,
/// `b'x'`, `r#ident`). Returns (end, kind, newlines crossed).
fn scan_word(bytes: &[u8], start: usize) -> (usize, TokenKind, u32) {
    // Raw/byte string prefixes.
    let prefix_len = match &bytes[start..(start + 2).min(bytes.len())] {
        [b'r', b'"'] | [b'r', b'#'] | [b'b', b'"'] => 1,
        [b'b', b'r'] if matches!(bytes.get(start + 2), Some(b'"') | Some(b'#')) => 2,
        [b'b', b'\''] => {
            let (end, _) = scan_quote(bytes, start + 1);
            return (end, TokenKind::Literal, 0);
        }
        _ => 0,
    };
    if prefix_len > 0 {
        let after = start + prefix_len;
        if bytes.get(after) == Some(&b'#')
            && bytes
                .get(after + 1)
                .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_')
        {
            // r#ident raw identifier, not a raw string.
        } else {
            let (end, newlines) = scan_raw_string(bytes, after);
            return (end, TokenKind::Literal, newlines);
        }
    }
    let mut i = start;
    if bytes.get(i) == Some(&b'r') && bytes.get(i + 1) == Some(&b'#') {
        i += 2; // raw identifier
    }
    while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
        i += 1;
    }
    (i, TokenKind::Ident, 0)
}

/// Scans a numeric literal loosely: digits, `_`, type suffixes, exponents and
/// a decimal point — but never a `..` range operator.
fn scan_number(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'_'
            || c.is_ascii_alphanumeric()
            || (c == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
        {
            i += 1;
        } else if (c == b'+' || c == b'-')
            && matches!(bytes.get(i.wrapping_sub(1)), Some(b'e') | Some(b'E'))
            && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
        {
            i += 1; // 1e-3
        } else {
            break;
        }
    }
    i
}

/// Parses an `xlint:` line comment into an [`Annotation`], if it is one.
fn parse_annotation(comment: &str, line: u32) -> Option<Annotation> {
    let body = comment.trim_start_matches(['/', '!']).trim();
    let rest = body.strip_prefix("xlint:")?.trim();
    let Some(args) = rest
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|a| a.strip_prefix('('))
        .and_then(|a| a.rfind(')').map(|end| &a[..end]))
    else {
        return Some(Annotation {
            line,
            rule: rest.to_string(),
            reason: None,
            well_formed: false,
        });
    };
    let (rule, tail) = match args.split_once(',') {
        Some((rule, tail)) => (rule.trim(), tail.trim()),
        None => (args.trim(), ""),
    };
    let reason = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| t.strip_suffix('"'))
        .filter(|t| !t.trim().is_empty())
        .map(str::to_string);
    Some(Annotation {
        line,
        rule: rule.to_string(),
        reason,
        well_formed: !rule.is_empty() && rule.chars().all(|c| c.is_ascii_alphanumeric()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap /* nested */ still comment */
            /// HashMap in a doc comment
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw string"#;
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(ids.contains(&"BTreeMap".to_string()));
    }

    #[test]
    fn char_literals_are_not_lifetimes() {
        let lexed = lex("let c = 'a'; fn f<'x>(v: &'x str) {} let n = '\\n';");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'x"));
    }

    #[test]
    fn ranges_do_not_eat_numbers() {
        let lexed = lex("for i in 0..window { x(1.5e-3); }");
        assert!(lexed.tokens.iter().any(|t| t.is_punct("..")));
        assert!(lexed.tokens.iter().any(|t| t.text == "1.5e-3"));
    }

    #[test]
    fn annotations_parse_rule_and_reason() {
        let lexed = lex(
            "let v = x(); // xlint: allow(HOT001, reason = \"one-time construction\")\n\
             // xlint: allow(HOT001)\n\
             // xlint: nonsense\n",
        );
        assert_eq!(lexed.annotations.len(), 3);
        assert_eq!(lexed.annotations[0].rule, "HOT001");
        assert_eq!(
            lexed.annotations[0].reason.as_deref(),
            Some("one-time construction")
        );
        assert!(lexed.annotations[0].well_formed);
        assert_eq!(lexed.annotations[1].rule, "HOT001");
        assert_eq!(lexed.annotations[1].reason, None);
        assert!(!lexed.annotations[2].well_formed);
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let lexed = lex("let s = \"a\nb\nc\";\nlet t = 1;");
        let t = lexed.tokens.iter().find(|t| t.text == "t").unwrap();
        assert_eq!(t.line, 4);
    }
}
