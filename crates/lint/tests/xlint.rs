//! End-to-end tests: the fixture corpus exercises every rule in both
//! directions, and the committed workspace itself must scan clean.

use bneck_lint::report::Report;
use bneck_lint::{run_workspace, Config};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The config both fixture trees are laid out for.
fn fixture_config() -> Config {
    Config {
        deterministic_crates: vec!["det".to_string()],
        hot_path_files: vec!["crates/det/src/hot.rs".to_string()],
        handler_files: vec!["crates/det/src/handler.rs".to_string()],
        protocol_enums: vec![("Packet".to_string(), "crates/det/src/packet.rs".to_string())],
        unwrap_budget_file: "budget.txt".to_string(),
        spec_file: "crates/det/src/spec.rs".to_string(),
        spec_fixtures_dir: "specs".to_string(),
    }
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scan(name: &str) -> Report {
    run_workspace(&fixture_root(name), &fixture_config()).expect("fixture tree scans")
}

#[test]
fn bad_fixture_triggers_every_rule() {
    let report = scan("ws_bad");
    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule).collect();
    for rule in [
        "DET001", "DET002", "EXH001", "HOT001", "UNW001", "SPEC001", "XLINT001", "XLINT002",
    ] {
        assert!(
            fired.contains(rule),
            "{rule} did not fire on ws_bad; findings: {:#?}",
            report.findings
        );
    }
}

#[test]
fn bad_fixture_finding_lines_are_exact() {
    let report = scan("ws_bad");
    let has = |rule: &str, file: &str, line: u32| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.line == line)
    };
    assert!(has("DET001", "crates/det/src/lib.rs", 3), "use line");
    assert!(
        has("DET002", "crates/det/src/lib.rs", 12),
        "bare Instant::now"
    );
    assert!(
        !has("DET002", "crates/det/src/lib.rs", 11),
        "the reasonless allow still suppresses; XLINT001 reports it instead"
    );
    assert!(
        has("XLINT001", "crates/det/src/lib.rs", 10),
        "allow without reason"
    );
    assert!(has("XLINT002", "crates/det/src/lib.rs", 16), "stale allow");
    assert!(
        has("HOT001", "crates/det/src/hot.rs", 4),
        "Vec::new in hot file"
    );
    assert!(
        has("EXH001", "crates/det/src/handler.rs", 6),
        "missing variants"
    );
    assert!(
        has("EXH001", "crates/det/src/handler.rs", 8),
        "catch-all arm"
    );
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "UNW001")
            .count(),
        2,
        "both unwrap sites reported once over budget"
    );
}

#[test]
fn ok_fixture_is_clean_with_annotations_in_effect() {
    let report = scan("ws_ok");
    assert!(
        report.is_clean(),
        "ws_ok should be clean; findings: {:#?}",
        report.findings
    );
    assert_eq!(
        report.annotations_used, 2,
        "DET002 + HOT001 allows both used"
    );
    assert!(
        report.notes.is_empty(),
        "unwrap count equals its budget: no ratchet note; notes: {:?}",
        report.notes
    );
}

#[test]
fn workspace_is_xlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf();
    let report = run_workspace(&root, &Config::default()).expect("workspace scans");
    assert!(
        report.is_clean(),
        "the committed workspace must be xlint-clean; findings:\n{}",
        report.render_human()
    );
}
