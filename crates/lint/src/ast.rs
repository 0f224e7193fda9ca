//! The one syntactic analysis over the token stream: `#[cfg(test)]` region
//! stripping.

use crate::lexer::Token;

/// Returns the token stream with every `#[cfg(test)]`-gated item removed.
///
/// An item is the attribute's target: any further attributes and doc
/// comments, then everything up to the end of its balanced `{ ... }` block
/// (or its terminating `;` for block-less items such as `use`). This is what
/// makes the scan a *non-test* source scan: `mod tests { ... }` bodies and
/// test-only imports never reach the rules.
pub fn strip_test_regions(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(attr_end) = parse_cfg_test_attr(tokens, i) {
            i = skip_item(tokens, attr_end);
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

/// If `tokens[i..]` starts a `#[cfg(...test...)]` attribute, returns the
/// index one past its closing `]`.
fn parse_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct("#") || !tokens.get(i + 1)?.is_punct("[") {
        return None;
    }
    let mut depth = 1usize;
    let mut j = i + 2;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
        } else if t.is_ident("cfg") {
            saw_cfg = true;
        } else if t.is_ident("test") {
            saw_test = true;
        }
        j += 1;
    }
    (saw_cfg && saw_test).then_some(j)
}

/// Skips the item starting at `i`: leading attributes and visibility, then
/// either a balanced brace block or a terminating `;`, whichever comes first.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while i + 1 < tokens.len() && tokens[i].is_punct("#") && tokens[i + 1].is_punct("[") {
        let mut depth = 1usize;
        i += 2;
        while i < tokens.len() && depth > 0 {
            if tokens[i].is_punct("[") {
                depth += 1;
            } else if tokens[i].is_punct("]") {
                depth -= 1;
            }
            i += 1;
        }
    }
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct(";") {
            return i + 1;
        }
        if t.is_punct("{") {
            let mut depth = 1usize;
            i += 1;
            while i < tokens.len() && depth > 0 {
                if tokens[i].is_punct("{") {
                    depth += 1;
                } else if tokens[i].is_punct("}") {
                    depth -= 1;
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_modules_are_stripped() {
        let src = "
            fn real() { let x = HashMap::new(); }
            #[cfg(test)]
            mod tests {
                fn fake() { let y = HashSet::new(); }
            }
            fn also_real() {}
        ";
        let tokens = strip_test_regions(&lex(src).tokens);
        assert!(tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(!tokens.iter().any(|t| t.is_ident("HashSet")));
        assert!(tokens.iter().any(|t| t.is_ident("also_real")));
    }

    #[test]
    fn cfg_test_on_single_items_and_imports() {
        let src = "
            #[cfg(test)]
            use std::collections::HashSet;
            #[cfg(test)]
            #[derive(Debug)]
            struct Probe { x: u32 }
            fn real() {}
        ";
        let tokens = strip_test_regions(&lex(src).tokens);
        assert!(!tokens.iter().any(|t| t.is_ident("HashSet")));
        assert!(!tokens.iter().any(|t| t.is_ident("Probe")));
        assert!(tokens.iter().any(|t| t.is_ident("real")));
    }
}
