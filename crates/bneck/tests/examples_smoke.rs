//! Workspace smoke test: every example binary of the facade crate runs to
//! completion and prints the output its doc comment promises.
//!
//! The examples are spawned through the same `cargo` that runs this test
//! (`CARGO` is always set by the harness), so they are built with the current
//! toolchain and profile cache rather than a hard-coded path.

use std::process::Command;

#[expect(
    clippy::disallowed_methods,
    reason = "test harness plumbing: CARGO is set by cargo itself"
)]
fn run_example(name: &str) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(["run", "-q", "-p", "bneck", "--example", name])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn quickstart_runs_to_completion() {
    let stdout = run_example("quickstart");
    assert!(
        stdout.contains("Mbps"),
        "quickstart should print session rates, got:\n{stdout}"
    );
}

#[test]
fn baseline_comparison_runs_to_completion() {
    let stdout = run_example("baseline_comparison");
    assert!(
        stdout.contains("B-Neck"),
        "baseline_comparison should mention B-Neck, got:\n{stdout}"
    );
}

#[test]
fn wan_dynamics_runs_to_completion() {
    run_example("wan_dynamics");
}

#[test]
fn datacenter_fabric_runs_to_completion() {
    run_example("datacenter_fabric");
}
