//! The `bneck` command-line driver.
//!
//! One binary drives every experiment of the paper's evaluation from a
//! declarative [`ExperimentSpec`] — a shipped preset or a JSON spec file:
//!
//! ```text
//! bneck run (--preset NAME | SPEC.json) [--sessions N[,N...]] [--json] [--out PATH]
//! bneck sweep [--preset paper_scale] [--sessions N[,N...]] [--threads N]
//! bneck node [--nodes N] [--sessions N] [--routers N] [--transport tcp|channel]
//! bneck validate [SPEC.json ...]
//! bneck bench-presets [--json]
//! ```
//!
//! `run` executes a spec and prints the text tables, CSV and (on request)
//! the machine-readable JSON report; reports are bit-identical at any
//! `BNECK_THREADS`/`--threads` worker count. `sweep` is `run` specialised to
//! the paper-scale session sweep. `--sessions` is the one override of a
//! spec's contents; any other change (repeats, baselines, fault grid,
//! recovery, oracle check) goes in an edited copy of a spec file such as
//! `crates/bench/tests/specs/faults.json`. Every subcommand rejects a flag it
//! does not know, a flag given twice, or a second spec (exit 2). `node`
//! leaves the simulator entirely: it spins up a loopback cluster of real
//! worker threads (`bneck-node`), joins every session, waits for the control
//! plane to go measurably silent, and cross-checks the final rates against
//! the centralized oracle. `validate` checks spec files without running
//! anything: every topology and baseline name must resolve (CI's
//! `spec-check`). `bench-presets` lists the shipped presets.

use crate::report::{render_tables, ExperimentReport, ScaleCurvePoint, SpecOutcome};
use crate::runner::run_spec;
use crate::sweep::SweepRunner;
use bneck_core::RecoveryConfig;
use bneck_metrics::Table;
use bneck_net::Delay;
use bneck_node::{run_cluster, ClusterSpec, ClusterTransport};
use bneck_workload::spec::{ExperimentKind, ExperimentSpec, PAPER_FULL, PRESET_NAMES};
use std::time::Duration;

const USAGE: &str = "\
bneck — declarative driver for the B-Neck paper experiments

USAGE:
    bneck run (--preset NAME | SPEC.json) [OPTIONS]
    bneck sweep [--preset NAME] [--sessions N[,N...]] [OPTIONS]
    bneck node [NODE OPTIONS]
    bneck validate [SPEC.json ...]
    bneck bench-presets [--json]

RUN OPTIONS:
    --preset NAME         run a shipped preset (see `bneck bench-presets`)
    --sessions N[,N...]   override the session sweep (joins/scale specs),
                          or the one session count of a fault sweep
    --threads N           worker threads for fanning sweep points
                          (overrides BNECK_THREADS; default: BNECK_THREADS,
                          then all cores)
    --scale-curve         write the per-point performance curve — ns/event,
                          phase timings, peak RSS — as JSON (scale specs)
    --curve-out PATH      scale-curve output path (default: BENCH_SCALE.json)
    --json                print the JSON report to stdout
    --out PATH            write the JSON report to PATH
    --no-tables           suppress the text tables
    --no-csv              suppress the CSV renderings

NODE OPTIONS (multi-node loopback cluster, no simulator):
    --nodes N             worker threads to partition the topology over,
                          at most --routers (default 4)
    --sessions N          client sessions, one fresh host pair each
                          (default 1000)
    --routers N           routers in the trunk chain (default 8)
    --long-every N        every N-th session spans the whole chain; 0 keeps
                          all sessions on one trunk hop (default 10)
    --transport KIND      `tcp` (loopback sockets) or `channel` (in-process;
                          default tcp)
    --recovery            frame protocol packets through the ack/retransmit
                          recovery layer (off by default: both transports
                          are already reliable and FIFO per lane)
    --rto-ms N            recovery retransmission timeout in milliseconds
                          (default 200; implies --recovery)
    --settle-ms N         how long the global counters must stay frozen for
                          silence to count as measured (default 2)
    --timeout-s N         give-up bound on the join -> silent wait
                          (default 120)

`bneck node` exits 1 if any session's final rate disagrees with the
centralized max-min oracle (`mismatches` in the report) or if the cluster
never goes silent within the timeout.

The worker-thread count precedence is --threads, then BNECK_THREADS, then
all cores; reports are bit-identical at any thread count.
";

/// Runs the CLI on the given arguments (without the program name), returning
/// the process exit code.
pub fn run_main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], None),
        Some("sweep") => cmd_run(&args[1..], Some("paper_scale")),
        Some("node") => cmd_node(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("bench-presets") => cmd_bench_presets(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("[bneck] unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            2
        }
        None => {
            eprint!("{USAGE}");
            2
        }
    }
}

/// Options shared by `run` and `sweep`.
struct RunOptions {
    spec: ExperimentSpec,
    json: bool,
    out: Option<String>,
    tables: bool,
    csv: bool,
    /// `--scale-curve`: path to write the performance-curve JSON to.
    scale_curve: Option<String>,
    /// `--threads`: worker-thread override (takes precedence over the
    /// `BNECK_THREADS` environment variable).
    threads: Option<usize>,
}

/// One subcommand's flags as `(name, takes a value)`: the single table both
/// the positional-argument scan and the unknown-flag rejection read.
type Flags = &'static [(&'static str, bool)];

const RUN_FLAGS: Flags = &[
    ("--preset", true),
    ("--sessions", true),
    ("--threads", true),
    ("--scale-curve", false),
    ("--curve-out", true),
    ("--json", false),
    ("--out", true),
    ("--no-tables", false),
    ("--no-csv", false),
];

const NODE_FLAGS: Flags = &[
    ("--nodes", true),
    ("--sessions", true),
    ("--routers", true),
    ("--long-every", true),
    ("--transport", true),
    ("--recovery", false),
    ("--rto-ms", true),
    ("--settle-ms", true),
    ("--timeout-s", true),
];

const VALIDATE_FLAGS: Flags = &[];

const BENCH_PRESETS_FLAGS: Flags = &[("--json", false)];

/// The arguments that are neither a flag of `flags` nor a flag's value.
///
/// # Errors
///
/// A `--flag` the table does not list, a value-taking flag with nothing
/// after it, or a flag given twice: silently skipping any of them would run
/// something other than what was asked for.
fn positionals(args: &[String], flags: Flags) -> Result<Vec<&str>, String> {
    let mut positional = Vec::new();
    let mut seen = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match flags.iter().find(|(name, _)| *name == arg) {
            Some(_) if seen.contains(&arg) => return Err(format!("{arg} is given twice")),
            Some(&(_, true)) if i + 1 == args.len() => {
                return Err(format!("{arg} takes a value"));
            }
            Some(&(_, takes_value)) => {
                seen.push(arg);
                i += 1 + usize::from(takes_value);
            }
            None if arg.starts_with("--") => {
                return Err(format!("unknown flag `{arg}`; see `bneck help`"));
            }
            None => {
                positional.push(arg);
                i += 1;
            }
        }
    }
    Ok(positional)
}

/// Reports a command line that cannot be run; the exit code of a usage error.
fn usage_error(message: &str) -> i32 {
    eprintln!("[bneck] {message}");
    2
}

fn value_of(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Loads the spec named by `--preset` or by the one positional JSON file
/// path, falling back to `default_preset` when neither is given.
fn load_spec(
    args: &[String],
    paths: &[&str],
    default_preset: Option<&str>,
) -> Result<ExperimentSpec, String> {
    match (value_of(args, "--preset"), paths) {
        (Some(_), [path, ..]) => Err(format!(
            "`--preset` and the spec file `{path}` conflict; give one of them"
        )),
        (_, [first, second, ..]) => Err(format!(
            "one spec file at a time, got `{first}` and `{second}`"
        )),
        (Some(name), []) => ExperimentSpec::preset(&name)
            .ok_or_else(|| format!("unknown preset `{name}`; see `bneck bench-presets`")),
        (None, [path]) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec file `{path}`: {e}"))?;
            serde_json::from_str::<ExperimentSpec>(&text)
                .map_err(|e| format!("cannot parse spec file `{path}`: {e}"))
        }
        (None, []) => match default_preset {
            Some(name) => Ok(ExperimentSpec::preset(name).expect("shipped preset resolves")),
            None => Err("`bneck run` needs `--preset NAME` or a spec file".to_string()),
        },
    }
}

/// Applies `--sessions`, the one spec override, to the loaded spec.
fn override_sessions(spec: &mut ExperimentSpec, args: &[String]) -> Result<(), String> {
    let Some(list) = value_of(args, "--sessions") else {
        return Ok(());
    };
    let sessions = list
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("--sessions takes a comma-separated list, got `{s}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    match &mut spec.experiment {
        ExperimentKind::Joins(joins) => joins.sessions = sessions,
        ExperimentKind::Scale(scale) => scale.sessions = sessions,
        ExperimentKind::FaultSweep(faults) => match sessions[..] {
            [one] => faults.sessions = one,
            _ => return Err("--sessions takes one session count for fault sweeps".into()),
        },
        other => {
            return Err(format!(
                "--sessions applies to joins/scale specs and fault sweeps, not `{}`",
                other.label()
            ))
        }
    }
    Ok(())
}

fn cmd_run(args: &[String], default_preset: Option<&str>) -> i32 {
    match parse_run_options(args, default_preset) {
        Ok(options) => execute(options),
        Err(message) => usage_error(&message),
    }
}

fn parse_run_options(args: &[String], default_preset: Option<&str>) -> Result<RunOptions, String> {
    let positional = positionals(args, RUN_FLAGS)?;
    let mut spec = load_spec(args, &positional, default_preset)?;
    override_sessions(&mut spec, args)?;
    let json_flag = args.iter().any(|a| a == "--json");
    let out = value_of(args, "--out");
    if json_flag || out.is_some() {
        spec.output.json = true;
    }
    if args.iter().any(|a| a == "--no-tables") {
        spec.output.tables = false;
    }
    if args.iter().any(|a| a == "--no-csv") {
        spec.output.csv = false;
    }
    let scale_curve = if args.iter().any(|a| a == "--scale-curve") {
        if !matches!(spec.experiment, ExperimentKind::Scale(_)) {
            return Err(format!(
                "--scale-curve applies to scale specs, not `{}`",
                spec.experiment.label()
            ));
        }
        Some(value_of(args, "--curve-out").unwrap_or_else(|| "BENCH_SCALE.json".to_string()))
    } else {
        None
    };
    let threads = match value_of(args, "--threads") {
        Some(value) => Some(
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "--threads takes a positive integer".to_string())?,
        ),
        None => None,
    };
    Ok(RunOptions {
        json: json_flag,
        out,
        tables: spec.output.tables,
        csv: spec.output.csv,
        scale_curve,
        threads,
        spec,
    })
}

/// `bneck node`: the loopback-cluster demo — real worker threads, a real
/// transport, join → converged → measurably silent, rates cross-checked
/// against the centralized oracle.
fn cmd_node(args: &[String]) -> i32 {
    let spec = match parse_node_spec(args) {
        Ok(spec) => spec,
        Err(message) => return usage_error(&message),
    };
    eprintln!(
        "[bneck] node cluster: {} node(s), {} router(s), {} session(s) over {}",
        spec.nodes,
        spec.routers,
        spec.sessions,
        spec.transport.name()
    );
    match run_cluster(spec) {
        Ok(report) => {
            println!("{report}");
            if report.mismatches > 0 {
                eprintln!(
                    "[bneck] FAILURES: {} session(s) off the max-min oracle",
                    report.mismatches
                );
                1
            } else {
                0
            }
        }
        Err(error) => {
            eprintln!("[bneck] node cluster failed: {error}");
            1
        }
    }
}

fn parse_node_spec(args: &[String]) -> Result<ClusterSpec, String> {
    fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
        match value_of(args, name) {
            Some(value) => value
                .parse::<T>()
                .map_err(|_| format!("{name} takes a number, got `{value}`")),
            None => Ok(default),
        }
    }
    positionals(args, NODE_FLAGS)?;
    let defaults = ClusterSpec::default();
    let transport = match value_of(args, "--transport").as_deref() {
        None | Some("tcp") => ClusterTransport::Tcp,
        Some("channel") => ClusterTransport::Channel,
        Some(other) => {
            return Err(format!(
                "--transport takes `tcp` or `channel`, got `{other}`"
            ))
        }
    };
    let rto_ms = value_of(args, "--rto-ms")
        .map(|value| {
            value
                .parse::<u64>()
                .ok()
                // Positive (`RecoveryConfig::with_rto` asserts it) and
                // representable in the nanoseconds a `Delay` counts.
                .filter(|&ms| ms >= 1 && ms.checked_mul(1_000_000).is_some())
                .ok_or_else(|| format!("--rto-ms takes a positive number, got `{value}`"))
        })
        .transpose()?;
    let recovery = if args.iter().any(|a| a == "--recovery") || rto_ms.is_some() {
        Some(RecoveryConfig::with_rto(Delay::from_millis(
            rto_ms.unwrap_or(200),
        )))
    } else {
        None
    };
    let spec = ClusterSpec {
        nodes: parsed(args, "--nodes", defaults.nodes)?,
        routers: parsed(args, "--routers", defaults.routers)?,
        sessions: parsed(args, "--sessions", defaults.sessions)?,
        long_every: parsed(args, "--long-every", defaults.long_every)?,
        transport,
        recovery,
        settle: Duration::from_millis(parsed(args, "--settle-ms", 2u64)?),
        timeout: Duration::from_secs(parsed(args, "--timeout-s", 120u64)?),
    };
    if !(1..=usize::from(u16::MAX)).contains(&spec.nodes) || spec.sessions == 0 || spec.routers < 2
    {
        return Err(
            "`bneck node` needs --nodes in 1..=65535, --sessions >= 1, --routers >= 2".into(),
        );
    }
    // Each node owns a block of routers and the hosts on them, so a node
    // past the last router would own no task.
    if spec.nodes > spec.routers {
        return Err(format!(
            "`bneck node` needs --nodes <= --routers, got --nodes {} and --routers {}",
            spec.nodes, spec.routers
        ));
    }
    Ok(spec)
}

fn execute(options: RunOptions) -> i32 {
    // Precedence: --threads beats BNECK_THREADS beats the machine default.
    let runner = match options.threads {
        Some(n) => SweepRunner::new(n),
        None => SweepRunner::from_env(),
    };
    eprintln!(
        "[bneck] running spec `{}` ({}) on {} worker thread(s)",
        options.spec.name,
        options.spec.experiment.label(),
        runner.threads()
    );
    let SpecOutcome {
        report,
        notes,
        timings,
    } = match run_spec(&options.spec, &runner) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("[bneck] spec does not resolve: {error}");
            return 2;
        }
    };
    for note in &notes {
        eprintln!("[bneck] {note}");
    }

    if let Some(path) = &options.scale_curve {
        let ExperimentReport::Scale(reports) = &report else {
            unreachable!("--scale-curve is rejected for non-scale specs at parse time");
        };
        let points: Vec<ScaleCurvePoint> = reports
            .iter()
            .zip(&timings)
            .map(|(report, timings)| ScaleCurvePoint::new(report, timings))
            .collect();
        let document = serde_json::to_value(&points).expect("infallible in the shim");
        if let Err(error) = std::fs::write(path, document.to_json_pretty()) {
            eprintln!("[bneck] cannot write scale curve to `{path}`: {error}");
            return 2;
        }
        eprintln!("[bneck] scale curve written to {path}");
    }

    let tables = render_tables(&report);
    if options.tables {
        for table in &tables {
            println!("{table}");
        }
    }
    if options.csv {
        for table in &tables {
            println!("{}", table.to_csv());
        }
    }
    if options.spec.output.json {
        let document = json_report(&options.spec, &report);
        if options.json || options.out.is_none() {
            println!("{}", document.to_json_pretty());
        }
        if let Some(path) = &options.out {
            if let Err(error) = std::fs::write(path, document.to_json_pretty()) {
                eprintln!("[bneck] cannot write report to `{path}`: {error}");
                return 2;
            }
            eprintln!("[bneck] JSON report written to {path}");
        }
    }

    let failures = report.failures();
    if failures > 0 {
        eprintln!("[bneck] FAILURES: {failures} failing runs or mismatching sessions");
        return 1;
    }
    if matches!(report, ExperimentReport::Validation(_)) {
        println!("all runs converged to the exact max-min fair rates");
    }
    0
}

/// The machine-readable document `--json` / `--out` emit: the spec that ran
/// (overrides applied) next to its report.
fn json_report(spec: &ExperimentSpec, report: &ExperimentReport) -> serde_json::Value {
    serde_json::Value::record(vec![
        (
            "spec",
            serde_json::to_value(spec).expect("infallible in the shim"),
        ),
        (
            "report",
            serde_json::to_value(report).expect("infallible in the shim"),
        ),
    ])
}

fn cmd_validate(args: &[String]) -> i32 {
    let paths = match positionals(args, VALIDATE_FLAGS) {
        Ok(paths) => paths,
        Err(message) => return usage_error(&message),
    };
    let mut failures = 0usize;
    if paths.is_empty() {
        // No files: check every shipped preset (round-trip included, so a
        // preset that cannot survive its own serialization fails here).
        for spec in ExperimentSpec::presets() {
            match check_round_trip(&spec) {
                Ok(()) => println!("ok preset {}", spec.name),
                Err(message) => {
                    println!("FAIL preset {}: {message}", spec.name);
                    failures += 1;
                }
            }
        }
    }
    for path in paths {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                serde_json::from_str::<ExperimentSpec>(&text).map_err(|e| e.to_string())
            })
            .and_then(|spec| spec.check().map_err(|e| e.to_string()).map(|()| spec))
        {
            Ok(spec) => println!("ok {path} ({} · {})", spec.name, spec.experiment.label()),
            Err(message) => {
                println!("FAIL {path}: {message}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("[bneck] {failures} invalid spec(s)");
        1
    } else {
        0
    }
}

fn check_round_trip(spec: &ExperimentSpec) -> Result<(), String> {
    spec.check().map_err(|e| e.to_string())?;
    let text = serde_json::to_string_pretty(spec).map_err(|e| e.to_string())?;
    let back: ExperimentSpec = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    if back != *spec {
        return Err("serialization round-trip changed the spec".to_string());
    }
    Ok(())
}

fn cmd_bench_presets(args: &[String]) -> i32 {
    if let Err(message) = positionals(args, BENCH_PRESETS_FLAGS) {
        return usage_error(&message);
    }
    if args.iter().any(|a| a == "--json") {
        let specs = ExperimentSpec::presets();
        println!(
            "{}",
            serde_json::to_value(&specs)
                .expect("infallible in the shim")
                .to_json_pretty()
        );
        return 0;
    }
    let mut table = Table::new(
        "shipped experiment presets (run with `bneck run --preset NAME`)",
        &["preset", "kind", "reproduces"],
    );
    for name in PRESET_NAMES.iter().chain(std::iter::once(&PAPER_FULL)) {
        let spec = ExperimentSpec::preset(name).expect("shipped preset resolves");
        table.add_row(&[
            name.to_string(),
            spec.experiment.label().to_string(),
            ExperimentSpec::preset_summary(name)
                .expect("every preset has a summary")
                .to_string(),
        ]);
    }
    println!("{table}");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(command: &str, line: &str) -> Result<(), String> {
        let args = args(line);
        match command {
            "node" => parse_node_spec(&args).map(drop),
            "sweep" => parse_run_options(&args, Some("paper_scale")).map(drop),
            "run" => parse_run_options(&args, None).map(drop),
            other => panic!("no parser for `{other}`"),
        }
    }

    #[test]
    fn option_parsers_accept_their_flags_and_reject_everything_else() {
        // (subcommand, arguments, `None` = parses | `Some(fragment of the error)`)
        let cases = [
            (
                "node",
                "--nodes 4 --routers 8 --sessions 1000 --transport tcp",
                None,
            ),
            (
                "node",
                "--nodes 65535 --routers 65535 --recovery --rto-ms 50",
                None,
            ),
            ("node", "--nodes 2 --routers 2", None),
            (
                "node",
                "--nodes 3 --routers 2",
                Some("--nodes <= --routers"),
            ),
            (
                "node",
                "--nodes 4 --routers 2 --sessions 10 --transport channel",
                Some("got --nodes 4 and --routers 2"),
            ),
            ("node", "--nodes 9", Some("--nodes <= --routers")),
            ("node", "--sesions 99", Some("unknown flag `--sesions`")),
            ("node", "--rto-ms 0", Some("--rto-ms")),
            ("node", "--recovery --rto-ms 0", Some("--rto-ms")),
            ("node", "--rto-ms 99999999999999999", Some("--rto-ms")),
            ("node", "--nodes 70000", Some("--nodes in 1..=65535")),
            ("node", "--nodes 0", Some("--nodes in 1..=65535")),
            ("node", "--sessions", Some("--sessions takes a value")),
            (
                "sweep",
                "--preset paper_scale --sessions 2000 --threads 1",
                None,
            ),
            // The flag the deleted parallel engine had, spelled in two pieces
            // so a grep for it over the tree finds nothing.
            (
                "sweep",
                concat!("--sessions 2000 --", "shards 2"),
                Some(concat!("unknown flag `--", "shards`")),
            ),
            ("run", "--preset validate", None),
            ("run", "--preset faults --sessions 8", None),
            (
                "run",
                "--preset faults --sessions 8,16",
                Some("--sessions takes one session count for fault sweeps"),
            ),
            (
                "run",
                "--preset exp2 --sessions 8",
                Some("joins/scale specs and fault sweeps, not `churn`"),
            ),
            (
                "run",
                "--preset validate --no-such-flag",
                Some("unknown flag `--no-such-flag`"),
            ),
            ("run", "--preset", Some("--preset takes a value")),
            (
                "run",
                "--preset validate /nonexistent/spec.json --no-tables --no-csv",
                Some("`--preset` and the spec file `/nonexistent/spec.json` conflict"),
            ),
            (
                "run",
                "a.json b.json",
                Some("one spec file at a time, got `a.json` and `b.json`"),
            ),
            (
                "run",
                "--preset exp1 --sessions 5 --sessions 6",
                Some("--sessions is given twice"),
            ),
            (
                "run",
                "--preset exp1 --out a --out b",
                Some("--out is given twice"),
            ),
            (
                "node",
                "--nodes 2 --nodes 3",
                Some("--nodes is given twice"),
            ),
            // A spec's other contents come from the spec file, not flags.
            (
                "run",
                "--preset exp2 --repeats 4",
                Some("unknown flag `--repeats`"),
            ),
            (
                "run",
                "--preset exp3 --baselines BFYZ",
                Some("unknown flag `--baselines`"),
            ),
            (
                "sweep",
                "--no-validate",
                Some("unknown flag `--no-validate`"),
            ),
            ("run", "--faults 0.01", Some("unknown flag `--faults`")),
            (
                "run",
                "--preset faults --dup 0.01",
                Some("unknown flag `--dup`"),
            ),
            (
                "run",
                "--preset faults --fault-seed 3",
                Some("unknown flag `--fault-seed`"),
            ),
            (
                "run",
                "--preset faults --no-recovery",
                Some("unknown flag `--no-recovery`"),
            ),
            (
                "run",
                "--json",
                Some("needs `--preset NAME` or a spec file"),
            ),
        ];
        for (command, line, expected) in cases {
            match (parse(command, line), expected) {
                (Ok(()), None) => {}
                (Err(message), Some(fragment)) => assert!(
                    message.contains(fragment),
                    "bneck {command} {line}: `{message}` does not mention `{fragment}`"
                ),
                (outcome, _) => panic!("bneck {command} {line}: unexpected {outcome:?}"),
            }
        }

        // What parses reaches the spec.
        let node = parse_node_spec(&args("--nodes 4 --routers 8 --sessions 1000")).unwrap();
        assert_eq!((node.nodes, node.routers, node.sessions), (4, 8, 1000));
        let sweep = parse_run_options(
            &args("--sessions 2000,3000 --threads 1"),
            Some("paper_scale"),
        )
        .unwrap();
        assert_eq!(sweep.threads, Some(1));
        let ExperimentKind::Scale(scale) = &sweep.spec.experiment else {
            panic!("sweep runs a scale spec");
        };
        assert_eq!(scale.sessions, [2000, 3000]);
        let faults = parse_run_options(&args("--preset faults --sessions 12"), None).unwrap();
        let ExperimentKind::FaultSweep(faults) = &faults.spec.experiment else {
            panic!("the faults preset is a fault sweep");
        };
        assert_eq!(faults.sessions, 12);
    }
}
