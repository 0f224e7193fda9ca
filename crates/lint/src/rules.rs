//! The xlint rule: HOT001, a token-pattern scan over the non-test token
//! stream of one file. It returns *candidate* findings — suppression by
//! `// xlint: allow(...)` annotations happens in [`crate::run_workspace`],
//! which also enforces that every annotation carries a reason and actually
//! suppresses something.

use crate::lexer::Token;
use crate::report::Finding;

/// A file prepared for scanning: its path (workspace-relative, `/`-separated)
/// and non-test token stream.
#[derive(Debug)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The file's tokens with `#[cfg(test)]` regions stripped.
    pub tokens: Vec<Token>,
}

/// Pushes `finding` unless the same rule already fired on that line (one
/// finding per line per rule keeps tables readable).
fn push_dedup(findings: &mut Vec<Finding>, finding: Finding) {
    if !findings
        .iter()
        .any(|f| f.rule == finding.rule && f.line == finding.line && f.file == finding.file)
    {
        findings.push(finding);
    }
}

/// `true` if `tokens[i..]` is the path sequence `first :: second`.
fn is_path2(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    tokens[i].is_ident(first)
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident(second))
}

/// HOT001: no allocation calls inside hot-path-manifest modules.
///
/// The per-event path was deliberately freed of allocation (reusable
/// `ActionBuffer`, calendar ring, inline id map); this rule keeps it that
/// way. One-time construction sites are annotated with the reason they are
/// off the per-event path.
pub fn hot001(ctx: &FileContext) -> Vec<Finding> {
    const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "clone"];
    let mut findings = Vec::new();
    let tokens = &ctx.tokens;
    for i in 0..tokens.len() {
        let what =
            if is_path2(tokens, i, "Vec", "new") || is_path2(tokens, i, "Vec", "with_capacity") {
                Some("`Vec` allocation".to_string())
            } else if is_path2(tokens, i, "Box", "new") {
                Some("`Box::new` allocation".to_string())
            } else if is_path2(tokens, i, "String", "from") {
                Some("`String::from` allocation".to_string())
            } else if (tokens[i].is_ident("vec") || tokens[i].is_ident("format"))
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
            {
                Some(format!("`{}!` allocation", tokens[i].text))
            } else if tokens[i].is_punct(".")
                && tokens
                    .get(i + 1)
                    .is_some_and(|t| ALLOC_METHODS.iter().any(|m| t.is_ident(m)))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct("("))
            {
                Some(format!("`.{}()` allocation", tokens[i + 1].text))
            } else {
                None
            };
        if let Some(what) = what {
            push_dedup(
                &mut findings,
                Finding::new(
                    "HOT001",
                    &ctx.path,
                    tokens[i].line,
                    format!("{what} in a hot-path-manifest module: the per-event path must not allocate"),
                ),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::strip_test_regions;
    use crate::lexer::lex;

    fn ctx(src: &str) -> FileContext {
        FileContext {
            path: "crates/fake/src/lib.rs".to_string(),
            tokens: strip_test_regions(&lex(src).tokens),
        }
    }

    #[test]
    fn hot001_flags_each_line_once() {
        let findings = hot001(&ctx(
            "fn f() { let a = Vec::new(); let b = vec![1]; }\nfn g(x: &[u8]) { x.to_vec(); }\n",
        ));
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
    }

    #[test]
    fn hot001_patterns() {
        let src = "fn f() {\n let a = Vec::new();\n let b = vec![1];\n let c = x.to_vec();\n let d = format!(\"x\");\n let e = y.clone();\n}";
        assert_eq!(hot001(&ctx(src)).len(), 5);
    }
}
