//! `bneck-xlint`: a workspace-aware determinism and hot-path static-analysis
//! pass, wired as a CI gate.
//!
//! The roadmap's parallel-engine item stakes everything on determinism
//! invariants (bit-identical reports at any thread count). Until this crate,
//! those invariants lived in reviewers' heads and in after-the-fact dynamic
//! checks (`crates/bench/tests/determinism.rs`, the interleaving explorer).
//! xlint checks them *mechanically, before execution*, as named rules over a
//! lightweight Rust token stream (no crates.io dependencies — the same
//! offline discipline as the serde shims):
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | DET001 | deterministic crates | no std `HashMap`/`HashSet` (seeded iteration order) |
//! | DET002 | everywhere but binary entry points | no `Instant::now`/`SystemTime`/`thread::current`/`std::env` reads |
//! | EXH001 | task-handler files | protocol `match`es name every enum variant, no `_ =>` |
//! | HOT001 | hot-path manifest | no allocation calls on the per-event path |
//! | UNW001 | deterministic crates | bare `unwrap()` ratchet — the count can only go down |
//! | SPEC001 | spec presets | every preset has a golden fixture, no stray fixtures |
//!
//! A finding is suppressed only by an in-source annotation on (or directly
//! above) the offending line, and the reason is mandatory:
//!
//! ```text
//! // xlint: allow(DET001, reason = "fixed Fibonacci hasher: order is a pure function of the op sequence")
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
use rules::{EnumSpec, FileContext};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What xlint scans and enforces, as data. [`Config::default`] is the
/// committed B-Neck workspace policy; tests build smaller ones over fixture
/// trees.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names (under `crates/`) whose behaviour must be a
    /// pure function of (spec, seed): the protocol engine and everything
    /// below the experiment driver.
    pub deterministic_crates: Vec<String>,
    /// The hot-path manifest: workspace-relative files on the per-event path
    /// where allocation is banned (HOT001).
    pub hot_path_files: Vec<String>,
    /// Task-handler files whose protocol matches must be exhaustive (EXH001).
    pub handler_files: Vec<String>,
    /// Protocol enums checked by EXH001: `(enum name, defining file)`.
    pub protocol_enums: Vec<(String, String)>,
    /// The committed bare-`unwrap()` ratchet, per deterministic crate.
    pub unwrap_budget_file: String,
    /// The module holding `PRESET_NAMES` (SPEC001).
    pub spec_file: String,
    /// Directory of golden spec fixtures (SPEC001).
    pub spec_fixtures_dir: String,
}

impl Default for Config {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            deterministic_crates: s(&["sim", "core", "maxmin", "baselines", "net", "workload"]),
            hot_path_files: s(&[
                "crates/sim/src/engine.rs",
                "crates/sim/src/event.rs",
                "crates/core/src/router_link.rs",
                "crates/core/src/host.rs",
                "crates/core/src/recovery.rs",
                "crates/maxmin/src/idmap.rs",
                "crates/node/src/runtime.rs",
                "crates/node/src/transport.rs",
            ]),
            handler_files: s(&[
                "crates/core/src/router_link.rs",
                "crates/core/src/source.rs",
                "crates/core/src/destination.rs",
                "crates/core/src/recovery.rs",
                "crates/core/src/harness.rs",
                "crates/core/src/host.rs",
                "crates/node/src/codec.rs",
                "crates/node/src/runtime.rs",
            ]),
            protocol_enums: vec![
                (
                    "Packet".to_string(),
                    "crates/core/src/packet.rs".to_string(),
                ),
                (
                    "Payload".to_string(),
                    "crates/core/src/harness.rs".to_string(),
                ),
            ],
            unwrap_budget_file: "crates/lint/unwrap-budget.txt".to_string(),
            spec_file: "crates/workload/src/spec.rs".to_string(),
            spec_fixtures_dir: "crates/bench/tests/specs".to_string(),
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
/// Only on I/O failure walking the tree; unreadable artifacts named by the
/// config surface as findings, not errors.
pub fn run_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut unwrap_sites: BTreeMap<String, Vec<Finding>> = BTreeMap::new();

    // Preload the protocol enums for EXH001.
    let mut enums: Vec<EnumSpec> = Vec::new();
    for (name, file) in &config.protocol_enums {
        match fs::read_to_string(root.join(file)) {
            Ok(src) => match rules::enum_spec(&lexer::lex(&src).tokens, name) {
                Some(spec) => enums.push(spec),
                None => findings.push(Finding::new(
                    "EXH001",
                    file.clone(),
                    0,
                    format!("enum `{name}` not found in its defining file"),
                )),
            },
            Err(err) => findings.push(Finding::new(
                "EXH001",
                file.clone(),
                0,
                format!("cannot read enum definition: {err}"),
            )),
        }
    }

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

        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        let deterministic = config.deterministic_crates.contains(&crate_name);
        let entry_point = rel.ends_with("/src/main.rs") || rel.contains("/src/bin/");

        let mut raw: Vec<Finding> = Vec::new();
        if deterministic {
            raw.extend(rules::det001(&ctx));
        }
        if !entry_point {
            raw.extend(rules::det002(&ctx));
        }
        if config.hot_path_files.iter().any(|f| f == &rel) {
            raw.extend(rules::hot001(&ctx));
        }
        if config.handler_files.iter().any(|f| f == &rel) {
            raw.extend(rules::exh001(&ctx, &enums));
        }
        let raw_unwraps = if deterministic {
            rules::unw001(&ctx)
        } else {
            Vec::new()
        };

        // Resolve annotations to target lines and apply suppressions.
        let mut annotations = resolve_annotations(&lexed.annotations, &lexed.tokens, &ctx);
        raw.retain(|f| !suppress(&mut annotations, f));
        let mut kept_unwraps: Vec<Finding> = Vec::new();
        for f in raw_unwraps {
            if !suppress(&mut annotations, &f) {
                kept_unwraps.push(f);
            }
        }
        if deterministic {
            unwrap_sites
                .entry(crate_name)
                .or_default()
                .extend(kept_unwraps);
        }
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

    // UNW001: the advisory ratchet.
    let budget = read_budget(&root.join(&config.unwrap_budget_file));
    for (crate_name, sites) in unwrap_sites {
        let allowed = budget.get(&crate_name).copied().unwrap_or(0);
        let count = sites.len();
        match count.cmp(&allowed) {
            std::cmp::Ordering::Greater => {
                for mut f in sites {
                    f.message = format!(
                        "{} (crate `{crate_name}`: {count} bare unwrap(s), budget {allowed} in {})",
                        f.message, config.unwrap_budget_file
                    );
                    findings.push(f);
                }
            }
            std::cmp::Ordering::Less => {
                report.notes.push(format!(
                    "UNW001: crate `{crate_name}` has {count} bare unwrap(s), below its budget of {allowed} — ratchet {} down",
                    config.unwrap_budget_file
                ));
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    // Cross-artifact rules.
    findings.extend(rules::spec001(
        root,
        &config.spec_file,
        &config.spec_fixtures_dir,
    ));

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

/// Parses the `crate = count` lines of the unwrap budget file.
fn read_budget(path: &Path) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    let Ok(text) = fs::read_to_string(path) else {
        return out;
    };
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some((name, count)) = line.split_once('=') {
            if let Ok(count) = count.trim().parse::<usize>() {
                out.insert(name.trim().to_string(), count);
            }
        }
    }
    out
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
