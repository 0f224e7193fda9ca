//! End-to-end tests: the fixture corpus exercises every rule in both
//! directions, and the committed workspace itself must scan clean.

use bneck_lint::report::{Report, ALL_RULES};
use bneck_lint::{run_workspace, Config};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The config both fixture trees are laid out for.
fn fixture_config() -> Config {
    Config {
        hot_path_files: vec!["crates/det/src/hot.rs".to_string()],
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
    for rule in ALL_RULES {
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
    assert!(
        has("HOT001", "crates/det/src/hot.rs", 4),
        "Vec::new in hot file"
    );
    assert!(
        !has("HOT001", "crates/det/src/hot.rs", 9),
        "the reasonless allow still suppresses; XLINT001 reports it instead"
    );
    assert!(
        has("XLINT001", "crates/det/src/hot.rs", 8),
        "allow without reason"
    );
    assert!(has("XLINT002", "crates/det/src/lib.rs", 4), "stale allow");
    assert_eq!(report.findings.len(), 3, "{:#?}", report.findings);
}

#[test]
fn ok_fixture_is_clean_with_annotations_in_effect() {
    let report = scan("ws_ok");
    assert!(
        report.is_clean(),
        "ws_ok should be clean; findings: {:#?}",
        report.findings
    );
    assert_eq!(report.annotations_used, 1, "the HOT001 allow is used");
}

#[test]
fn manifest_entry_without_a_file_is_a_finding() {
    let mut config = fixture_config();
    config
        .hot_path_files
        .push("crates/det/src/renamed.rs".to_string());
    let report = run_workspace(&fixture_root("ws_ok"), &config).expect("fixture tree scans");
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let finding = &report.findings[0];
    assert_eq!(
        (finding.rule, finding.file.as_str(), finding.line),
        ("HOT001", "crates/det/src/renamed.rs", 0)
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
