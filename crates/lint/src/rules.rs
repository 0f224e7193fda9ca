//! The xlint rules.
//!
//! Token-pattern rules (`DET001`, `DET002`, `HOT001`, `UNW001`) scan the
//! non-test token stream of one file; structural rules (`EXH001`) use the
//! match-arm scanner; the artifact rule (`SPEC001`) cross-checks
//! source constants against files on disk. Every rule returns *candidate*
//! findings — suppression by `// xlint: allow(...)` annotations happens in
//! the driver ([`crate::run_workspace`]), which also enforces that every
//! annotation carries a reason and actually suppresses something.

use crate::ast;
use crate::lexer::{lex, Token, TokenKind};
use crate::report::Finding;
use std::fs;
use std::path::Path;

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

/// `true` if `tokens[i..]` is a method call `. name (`.
fn is_method_call(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens[i].is_punct(".")
        && tokens.get(i + 1).is_some_and(|t| t.is_ident(name))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct("("))
}

/// DET001: no std `HashMap`/`HashSet` in deterministic crates.
///
/// Iteration order of the std hash collections depends on a per-process
/// random seed, which is the classic silent determinism killer for an
/// engine that must produce bit-identical reports at any thread count. The
/// rule flags every *mention* of the types, not just iteration: a map that
/// exists will eventually be iterated, and a lookup-only use carries an
/// `xlint: allow` with the invariant as reason.
pub fn det001(ctx: &FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    for t in &ctx.tokens {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            push_dedup(
                &mut findings,
                Finding::new(
                    "DET001",
                    &ctx.path,
                    t.line,
                    format!(
                        "`{}` in a deterministic crate: iteration order is seeded per process; use BTreeMap/BTreeSet, a sorted Vec, or IdSlotMap",
                        t.text
                    ),
                ),
            );
        }
    }
    findings
}

/// DET002: no wall-clock, thread-identity or environment reads in
/// deterministic crates (wall-clock belongs only in bench reporting, and
/// even there each site states why it cannot perturb results).
pub fn det002(ctx: &FileContext) -> Vec<Finding> {
    const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os", "args", "args_os"];
    let mut findings = Vec::new();
    let tokens = &ctx.tokens;
    for i in 0..tokens.len() {
        let what = if is_path2(tokens, i, "Instant", "now") {
            Some("`Instant::now()` (wall clock)")
        } else if tokens[i].is_ident("SystemTime") {
            Some("`SystemTime` (wall clock)")
        } else if is_path2(tokens, i, "thread", "current") {
            Some("`thread::current()` (thread identity)")
        } else if tokens[i].is_ident("env")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && tokens
                .get(i + 2)
                .is_some_and(|t| ENV_READS.iter().any(|m| t.is_ident(m)))
        {
            Some("`std::env` read (process environment)")
        } else {
            None
        };
        if let Some(what) = what {
            push_dedup(
                &mut findings,
                Finding::new(
                    "DET002",
                    &ctx.path,
                    tokens[i].line,
                    format!("{what}: results must be a pure function of (spec, seed)"),
                ),
            );
        }
    }
    findings
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

/// UNW001 candidate sites: bare `.unwrap()` calls (test code excluded).
///
/// Advisory ratchet: the driver compares the per-crate count against the
/// committed budget in `crates/lint/unwrap-budget.txt`; the budget can only
/// be lowered. `expect("...")` with the invariant stated is always fine.
pub fn unw001(ctx: &FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tokens = &ctx.tokens;
    for i in 0..tokens.len() {
        if is_method_call(tokens, i, "unwrap") {
            findings.push(Finding::new(
                "UNW001",
                &ctx.path,
                tokens[i].line,
                "bare `.unwrap()`: state the invariant with `expect(\"...\")` or return a typed error".to_string(),
            ));
        }
    }
    findings
}

/// A protocol enum EXH001 checks coverage of: its name and variant list.
#[derive(Debug, Clone)]
pub struct EnumSpec {
    /// The enum's name as it appears in patterns (`Packet`, `Payload`).
    pub name: String,
    /// All variant names, from the defining file.
    pub variants: Vec<String>,
}

/// Extracts an [`EnumSpec`] from the tokens of the defining file.
pub fn enum_spec(tokens: &[Token], name: &str) -> Option<EnumSpec> {
    ast::enum_variants(tokens, name).map(|variants| EnumSpec {
        name: name.to_string(),
        variants,
    })
}

/// EXH001: in task-handler files, every `match` whose patterns name a
/// protocol enum must (a) have no catch-all arm and (b) name every variant
/// of that enum across its arms — a new protocol message can then never be
/// silently swallowed by an old handler.
pub fn exh001(ctx: &FileContext, enums: &[EnumSpec]) -> Vec<Finding> {
    // The two finding categories (catch-all arm, missing variants) can share
    // a line in compact code, so each is deduped independently.
    let mut catch_alls = Vec::new();
    let mut missing_variants = Vec::new();
    for m in ast::find_matches(&ctx.tokens) {
        for spec in enums {
            let referenced = m.referenced_variants(&spec.name);
            if referenced.is_empty() {
                continue;
            }
            for line in m.catch_all_arms() {
                push_dedup(
                    &mut catch_alls,
                    Finding::new(
                        "EXH001",
                        &ctx.path,
                        line,
                        format!(
                            "catch-all arm in a `match` on `{}`: name the ignored variants explicitly",
                            spec.name
                        ),
                    ),
                );
            }
            let missing: Vec<&str> = spec
                .variants
                .iter()
                .filter(|v| !referenced.contains(v))
                .map(String::as_str)
                .collect();
            if !missing.is_empty() {
                push_dedup(
                    &mut missing_variants,
                    Finding::new(
                        "EXH001",
                        &ctx.path,
                        m.line,
                        format!(
                            "`match` on `{}` does not name variant(s) {}: every protocol message must be handled or explicitly ignored",
                            spec.name,
                            missing.join(", ")
                        ),
                    ),
                );
            }
        }
    }
    catch_alls.extend(missing_variants);
    catch_alls
}

/// SPEC001: every shipped spec preset has a golden fixture under the spec
/// fixtures directory, and every fixture corresponds to a shipped preset.
///
/// Preset names are read statically from the `PRESET_NAMES` array (plus the
/// `PAPER_FULL` alias) in the spec module, so a new preset cannot land
/// without its golden fixture — and a deleted preset cannot leave one behind.
pub fn spec001(root: &Path, spec_file: &str, fixtures_dir: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let spec_path = root.join(spec_file);
    let src = match fs::read_to_string(&spec_path) {
        Ok(src) => src,
        Err(err) => {
            return vec![Finding::new(
                "SPEC001",
                spec_file,
                0,
                format!("cannot read spec module: {err}"),
            )]
        }
    };
    let tokens = lex(&src).tokens;
    let mut presets = string_array_const(&tokens, "PRESET_NAMES");
    if let Some(alias) = string_const(&tokens, "PAPER_FULL") {
        presets.push(alias);
    }
    if presets.is_empty() {
        return vec![Finding::new(
            "SPEC001",
            spec_file,
            0,
            "no `PRESET_NAMES` array found: the preset list must stay statically readable",
        )];
    }
    let dir = root.join(fixtures_dir);
    let mut fixtures: Vec<String> = Vec::new();
    match fs::read_dir(&dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(stem) = name.strip_suffix(".json") {
                    fixtures.push(stem.to_string());
                }
            }
        }
        Err(err) => {
            return vec![Finding::new(
                "SPEC001",
                fixtures_dir,
                0,
                format!("cannot list spec fixtures: {err}"),
            )]
        }
    }
    fixtures.sort();
    for preset in &presets {
        if !fixtures.contains(preset) {
            findings.push(Finding::new(
                "SPEC001",
                fixtures_dir,
                0,
                format!("preset `{preset}` has no golden fixture `{fixtures_dir}/{preset}.json`"),
            ));
        }
    }
    for fixture in &fixtures {
        if !presets.contains(fixture) {
            findings.push(Finding::new(
                "SPEC001",
                format!("{fixtures_dir}/{fixture}.json"),
                0,
                format!("stray fixture: `{fixture}` is not a shipped preset"),
            ));
        }
    }
    findings
}

/// The contents of a string-literal token, quotes stripped; `None` for other
/// tokens.
fn string_literal(token: &Token) -> Option<String> {
    if token.kind != TokenKind::Literal || !token.text.starts_with('"') {
        return None;
    }
    Some(token.text.trim_matches('"').to_string())
}

/// Reads `const NAME: ... = [ "a", "b", ... ]` from a token stream.
fn string_array_const(tokens: &[Token], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].is_ident(name) {
            let mut j = i + 1;
            while j < tokens.len() && !tokens[j].is_punct("[") {
                if tokens[j].is_punct(";") {
                    break;
                }
                j += 1;
            }
            if j >= tokens.len() || !tokens[j].is_punct("[") {
                continue;
            }
            // This may be the `[&str; 10]` type; the value array is the next
            // bracket group containing string literals.
            loop {
                j += 1;
                let mut strings = Vec::new();
                while j < tokens.len() && !tokens[j].is_punct("]") {
                    if let Some(s) = string_literal(&tokens[j]) {
                        strings.push(s);
                    }
                    j += 1;
                }
                if !strings.is_empty() {
                    out = strings;
                    break;
                }
                j += 1;
                while j < tokens.len() && !tokens[j].is_punct("[") {
                    if tokens[j].is_punct(";") {
                        return out;
                    }
                    j += 1;
                }
                if j >= tokens.len() {
                    return out;
                }
            }
            if !out.is_empty() {
                return out;
            }
        }
    }
    out
}

/// Reads `const NAME: &str = "..."` from a token stream.
fn string_const(tokens: &[Token], name: &str) -> Option<String> {
    for i in 0..tokens.len() {
        if tokens[i].is_ident(name) {
            for t in tokens.iter().skip(i + 1).take(8) {
                if let Some(s) = string_literal(t) {
                    return Some(s);
                }
                if t.is_punct(";") {
                    break;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::strip_test_regions;

    fn ctx(src: &str) -> FileContext {
        FileContext {
            path: "crates/fake/src/lib.rs".to_string(),
            tokens: strip_test_regions(&lex(src).tokens),
        }
    }

    #[test]
    fn det001_flags_each_line_once() {
        let findings = det001(&ctx(
            "use std::collections::{HashMap, HashSet};\nfn f(m: &HashMap<u32, u32>) {}\n",
        ));
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
    }

    #[test]
    fn det002_patterns() {
        let src = "fn f() { let t = Instant::now(); let v = std::env::var(\"X\"); let id = thread::current().id(); }";
        let findings = det002(&ctx(src));
        assert_eq!(findings.len(), 1); // one line, deduped
        let src2 = "fn f() {\n let t = Instant::now();\n let v = std::env::var(\"X\");\n}";
        assert_eq!(det002(&ctx(src2)).len(), 2);
    }

    #[test]
    fn hot001_patterns() {
        let src = "fn f() {\n let a = Vec::new();\n let b = vec![1];\n let c = x.to_vec();\n let d = format!(\"x\");\n let e = y.clone();\n}";
        assert_eq!(hot001(&ctx(src)).len(), 5);
    }

    #[test]
    fn unw001_counts_sites_not_lines() {
        let src = "fn f() { a.unwrap(); b.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { c.unwrap(); } }";
        assert_eq!(unw001(&ctx(src)).len(), 2);
    }

    #[test]
    fn exh001_catches_wildcards_and_missing_variants() {
        let spec = EnumSpec {
            name: "Packet".to_string(),
            variants: vec!["Join".into(), "Probe".into(), "Leave".into()],
        };
        let bad = ctx("fn h(p: Packet) { match p { Packet::Join { .. } => go(), _ => {} } }");
        let findings = exh001(&bad, std::slice::from_ref(&spec));
        assert_eq!(findings.len(), 2); // catch-all + missing variants
        let good = ctx("fn h(p: Packet) { match p { Packet::Join { .. } => go(), Packet::Probe { .. } | Packet::Leave => {} } }");
        assert!(exh001(&good, &[spec]).is_empty());
    }

    #[test]
    fn string_consts_parse() {
        let tokens = lex("pub const PRESET_NAMES: [&str; 2] = [\"a\", \"b\"];\npub const PAPER_FULL: &str = \"c\";").tokens;
        assert_eq!(string_array_const(&tokens, "PRESET_NAMES"), vec!["a", "b"]);
        assert_eq!(string_const(&tokens, "PAPER_FULL").as_deref(), Some("c"));
    }
}
