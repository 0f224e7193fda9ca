//! `bneck-xlint`: the hot-path allocation gate, wired as a CI job.
//!
//! The simulator's per-event path was freed of allocation (reusable
//! `ActionBuffer`, calendar slab, inline id map), and the speed of every
//! workload in the benchmark rests on it staying that way. No compiler or
//! clippy lint bans allocation in a chosen set of files, so this crate does,
//! over a lightweight Rust token stream (no crates.io dependencies — the same
//! offline discipline as the serde shims):
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | HOT001 | hot-path manifest ([`Config::hot_path_files`]) | no allocation calls on the per-event path; every manifest entry names an existing file |
//!
//! The workspace's other static invariants live in the gates that already
//! run in CI: `clippy.toml` bans seeded-order hash collections, wall-clock,
//! environment and thread-identity reads; the deterministic crates warn on
//! `clippy::unwrap_used`; the task-handler files warn on
//! `clippy::wildcard_enum_match_arm`; and `crates/bench/tests/specs.rs` pins
//! every spec preset to its golden fixture.
//!
//! A finding is suppressed only by an in-source annotation on (or directly
//! above) the offending line, and the reason is mandatory:
//!
//! ```text
//! // xlint: allow(HOT001, reason = "host construction, once before any packet")
//! ```
//!
//! Meta-rules keep the annotations honest: XLINT001 (an annotation without a
//! reason, or naming an unknown rule) and XLINT002 (an annotation that
//! suppresses nothing — no stale allows).

pub mod ast;
pub mod lexer;
pub mod report;
pub mod rules;

use report::{Finding, Report, ALL_RULES};
use rules::FileContext;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What xlint scans and enforces, as data. [`Config::default`] is the
/// committed B-Neck workspace policy; tests build smaller ones over fixture
/// trees.
#[derive(Debug, Clone)]
pub struct Config {
    /// The hot-path manifest: workspace-relative files on the per-event path
    /// where allocation is banned (HOT001).
    pub hot_path_files: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hot_path_files: [
                "crates/sim/src/engine.rs",
                "crates/sim/src/event.rs",
                "crates/core/src/router_link.rs",
                "crates/core/src/host.rs",
                "crates/core/src/recovery.rs",
                "crates/maxmin/src/idmap.rs",
                "crates/node/src/runtime.rs",
                "crates/node/src/transport.rs",
            ]
            .map(String::from)
            .to_vec(),
        }
    }
}

/// An annotation with its resolved target line and usage state.
#[derive(Debug)]
struct ResolvedAnnotation {
    line: u32,
    target: Option<u32>,
    rule: String,
    has_reason: bool,
    well_formed: bool,
    used: bool,
}

/// Runs the full workspace scan rooted at `root` (the directory containing
/// `crates/`).
///
/// # Errors
///
/// Only on I/O failure walking the tree; a manifest entry that names no
/// file surfaces as a finding, not an error.
pub fn run_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut hot_files_seen: Vec<&str> = Vec::new();

    for file in source_files(&root.join("crates"))? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&file)?;
        let lexed = lexer::lex(&src);
        let ctx = FileContext {
            path: rel.clone(),
            tokens: ast::strip_test_regions(&lexed.tokens),
        };
        report.files_scanned += 1;

        let mut raw: Vec<Finding> = Vec::new();
        if let Some(hot) = config.hot_path_files.iter().find(|f| **f == rel) {
            hot_files_seen.push(hot);
            raw.extend(rules::hot001(&ctx));
        }

        // Resolve annotations to target lines and apply suppressions.
        let mut annotations = resolve_annotations(&lexed.annotations, &lexed.tokens, &ctx);
        raw.retain(|f| !suppress(&mut annotations, f));
        findings.extend(raw);

        // Meta-rules over the annotations themselves.
        for ann in &annotations {
            if ann.used {
                report.annotations_used += 1;
            }
            if !ann.well_formed || !ALL_RULES.contains(&ann.rule.as_str()) {
                findings.push(Finding::new(
                    "XLINT001",
                    rel.clone(),
                    ann.line,
                    format!(
                        "malformed annotation `{}`: expected `xlint: allow(RULE, reason = \"...\")` with a known rule",
                        ann.rule
                    ),
                ));
            } else if !ann.has_reason {
                findings.push(Finding::new(
                    "XLINT001",
                    rel.clone(),
                    ann.line,
                    format!(
                        "allow({}) without a reason: state why the invariant holds here",
                        ann.rule
                    ),
                ));
            } else if !ann.used {
                findings.push(Finding::new(
                    "XLINT002",
                    rel.clone(),
                    ann.line,
                    format!(
                        "stale allow({}): it suppresses nothing on line {}",
                        ann.rule,
                        ann.target.unwrap_or(ann.line)
                    ),
                ));
            }
        }
    }

    // A manifest entry that matches no scanned file would silently drop a
    // renamed hot file out of HOT001.
    for missing in config
        .hot_path_files
        .iter()
        .filter(|f| !hot_files_seen.contains(&f.as_str()))
    {
        findings.push(Finding::new(
            "HOT001",
            missing.clone(),
            0,
            "hot-path manifest entry matches no source file: update the manifest in `Config::default`",
        ));
    }

    let rule_order = |rule: &str| {
        ALL_RULES
            .iter()
            .position(|r| *r == rule)
            .unwrap_or(usize::MAX)
    };
    findings.sort_by(|a, b| {
        rule_order(a.rule)
            .cmp(&rule_order(b.rule))
            .then_with(|| a.file.cmp(&b.file))
            .then_with(|| a.line.cmp(&b.line))
    });
    report.findings = findings;
    Ok(report)
}

/// Resolves each annotation's target line: its own line when code shares it,
/// otherwise the next line carrying code. Annotations whose target lies in a
/// stripped `#[cfg(test)]` region are dropped — no rule fires there, so they
/// would all read as stale.
fn resolve_annotations(
    annotations: &[lexer::Annotation],
    full_tokens: &[lexer::Token],
    ctx: &FileContext,
) -> Vec<ResolvedAnnotation> {
    let code_lines: std::collections::BTreeSet<u32> = ctx.tokens.iter().map(|t| t.line).collect();
    let full_lines: std::collections::BTreeSet<u32> = full_tokens.iter().map(|t| t.line).collect();
    annotations
        .iter()
        .filter(|a| {
            let full_target = if full_lines.contains(&a.line) {
                Some(a.line)
            } else {
                full_lines.range(a.line..).next().copied()
            };
            match full_target {
                Some(line) => code_lines.contains(&line),
                None => false,
            }
        })
        .map(|a| ResolvedAnnotation {
            line: a.line,
            target: if code_lines.contains(&a.line) {
                Some(a.line)
            } else {
                code_lines.range(a.line..).next().copied()
            },
            rule: a.rule.clone(),
            has_reason: a.reason.is_some(),
            well_formed: a.well_formed,
            used: false,
        })
        .collect()
}

/// `true` if an annotation suppresses this finding (marking it used).
/// Annotations without a reason still suppress — XLINT001 reports them
/// separately, so the underlying finding is not double-reported.
fn suppress(annotations: &mut [ResolvedAnnotation], finding: &Finding) -> bool {
    for ann in annotations.iter_mut() {
        if ann.well_formed && ann.rule == finding.rule && ann.target == Some(finding.line) {
            ann.used = true;
            return true;
        }
    }
    false
}

/// Recursively lists the non-test `.rs` sources of every crate under `dir`:
/// each crate's `src/` tree (integration `tests/` and `examples/` are
/// dynamic-test surface, not shipped code).
fn source_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut crates: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.join("Cargo.toml").is_file() {
            crates.push(path.join("src"));
        }
    }
    crates.sort();
    let mut files = Vec::new();
    for src_dir in crates {
        if src_dir.is_dir() {
            collect_rs(&src_dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: from `start`, the first ancestor containing a
/// `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}
