//! A reader that goes away early (`bneck … | head -c 0`) ends `bneck`'s
//! output, not the process: the exit code stays the run's own verdict and
//! nothing panics.

use std::io::pipe;
use std::process::{Command, Stdio};

/// Runs `bneck` with stdout on a pipe whose read end was closed before the
/// spawn, so its first write fails with `EPIPE`, and checks that it still
/// exits 0 without a panic.
fn exits_cleanly_with_closed_stdout(args: &[&str]) {
    let (reader, writer) = pipe().expect("create a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_bneck"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run bneck");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("panicked"),
        "bneck {args:?} panicked:\n{stderr}"
    );
    assert_eq!(output.status.code(), Some(0), "bneck {args:?}:\n{stderr}");
}

#[test]
fn bench_presets_survives_a_closed_stdout() {
    exits_cleanly_with_closed_stdout(&["bench-presets"]);
}

#[test]
fn node_survives_a_closed_stdout() {
    exits_cleanly_with_closed_stdout(&[
        "node",
        "--nodes",
        "1",
        "--routers",
        "2",
        "--sessions",
        "4",
        "--transport",
        "channel",
    ]);
}
