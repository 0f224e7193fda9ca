//! The B-Neck benchmark driver: one process runs one workload, times the
//! repository's public API from outside, checks every output against the
//! max-min oracle, and prints the metrics as one JSON object on the last
//! line of standard output. See `benchmark/README.md`.

mod cluster;
mod gate;
#[cfg(test)]
mod manifest;
mod metrics;
mod probes;
mod run;
mod seeds;
mod sim;
mod stats;
mod trace;

use gate::{Gate, Perturb};
use run::Run;
use seeds::Seeds;
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Recorder;

/// A workload: its name, its entry point, and whether it keeps the
/// simulator's event queue deep (which engine probe explains its run time).
type Workload = (&'static str, fn(&mut Run), bool);

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[Workload] = &[
    ("join_burst", sim::join_burst, true),
    ("churn_single", sim::churn_single, false),
    ("lossy_recovery", sim::lossy_recovery, true),
    ("cluster_chain", cluster::cluster_chain, false),
    ("cluster_wire", cluster::cluster_wire, false),
];

/// How long the timed part measures unless `--seconds` says otherwise;
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: bneck-benchmark --workload NAME|all [--seed N] [--seconds S] \
[--trace [0|1]] [--quick] [--self-test] [--out DIR]";

#[derive(Debug)]
struct Args {
    /// The workload to run; with `all` set, each one in a process of its own.
    workload: &'static Workload,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    self_test: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        all: false,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        self_test: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.all = name == "all";
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.0 == name || args.all)
                        .ok_or(format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".to_string());
                }
            }
            // `--trace` alone means on; `--trace 0|1` is the driver's form.
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--quick" => args.quick = true,
            "--self-test" => args.self_test = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.self_test {
        args.quick = true;
    } else {
        args.workload = workload.ok_or("--workload is required")?;
    }
    Ok(args)
}

/// Runs the workload (and, traced, the probes) and returns the finished run.
fn execute(args: &Args, perturb: Option<Perturb>) -> Run {
    let (_, workload, deep_queue) = *args.workload;
    let mut run = Run::new(
        Seeds::derive(args.seed),
        args.seconds,
        args.quick,
        Recorder::new(args.trace),
        Gate::new(perturb),
    );
    workload(&mut run);
    if args.trace {
        run.layer("process.peak_rss_mib", run::peak_rss_mib());
        probes::run_all(&mut run);
        probes::derive_shares(&mut run, deep_queue);
        let failed = run.gate.failed.min(run.gate.attempted);
        run.layer(
            "ops_failed_share",
            failed as f64 / run.gate.attempted.max(1) as f64,
        );
    }
    run
}

/// The result object the contract asks for on the last line of stdout.
fn result_json(args: &Args, run: &Run) -> Value {
    let metric = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            Value::Map(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        )
    };
    let metrics = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|(n, u)| metric(n, u, run.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(n, u)| metric(n, u, run.e2e[n]))
            .collect()
    };
    Value::Map(vec![
        ("correct".to_string(), Value::Bool(run.gate.correct())),
        ("attempted".to_string(), Value::U64(run.gate.attempted)),
        (
            "failed".to_string(),
            Value::U64(run.gate.failed.min(run.gate.attempted)),
        ),
        ("metrics".to_string(), Value::Map(metrics)),
    ])
}

/// The human-readable report, on stderr so stdout stays one JSON line.
fn report(args: &Args, run: &Run) {
    let name = args.workload.0;
    eprintln!(
        "[{name}] seed {} · {} s budget · {} thread(s) available · {}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if args.trace { "traced" } else { "untraced" },
    );
    for (metric, unit) in metrics::END_TO_END {
        eprintln!("  {metric:<44} {:>18.6} {unit}", run.e2e[metric]);
    }
    if args.trace {
        for (metric, unit) in metrics::PER_LAYER {
            if let Some(value) = run.layers.get(metric) {
                eprintln!("  {metric:<44} {value:>18.6} {unit}");
            }
        }
        eprintln!(
            "  {:<44} {:>6} {:>12} {:>12}",
            "span", "calls", "total s", "self s"
        );
        for (span, (calls, total, own)) in run.rec.self_times() {
            eprintln!("  {span:<44} {calls:>6} {total:>12.6} {own:>12.6}");
        }
    }
    eprintln!(
        "  operations: {} attempted, {} failed",
        run.gate.attempted,
        run.gate.failed.min(run.gate.attempted)
    );
    for reason in &run.gate.reasons {
        eprintln!("  FAILED: {reason}");
    }
}

fn write_trace(args: &Args, run: &Run) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!("trace-{}.json", args.workload.0));
    std::fs::write(&path, run.rec.to_json().to_json())?;
    eprintln!("  spans written to {}", path.display());
    Ok(())
}

/// `--self-test`: arms each deliberate fault in turn on a quick run and
/// requires the gate to reject it. Exits non-zero when both faults were
/// caught (the gate bites, as designed) and zero when one slipped through,
/// so a caller asserts failure: `if run.sh --self-test; then exit 1; fi`.
fn self_test(args: &Args) -> ExitCode {
    let mut caught = 0;
    for perturb in [Perturb::Rate, Perturb::Counter] {
        let run = execute(args, Some(perturb));
        if run.gate.correct() {
            eprintln!("self-test: {perturb:?} perturbation was NOT caught");
        } else {
            eprintln!(
                "self-test: {perturb:?} perturbation caught ({} of {} operations failed)",
                run.gate.failed.min(run.gate.attempted),
                run.gate.attempted
            );
            caught += 1;
        }
    }
    if caught == 2 {
        eprintln!("self-test: the gate rejected both perturbed runs; exiting non-zero as designed");
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// `--workload all`: each workload in a fresh process of this same program,
/// one after the other, so `process.peak_rss_mib` is per workload. Every child is
/// waited for; the exit code is non-zero if any child's was.
fn run_each(args: &Args) -> ExitCode {
    let program = match std::env::current_exe() {
        Ok(program) => program,
        Err(problem) => {
            eprintln!("cannot find this program to re-run it: {problem}");
            return ExitCode::from(2);
        }
    };
    let mut all_passed = true;
    for (name, _, _) in WORKLOADS {
        let mut child = std::process::Command::new(&program);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.quick {
            child.arg("--quick");
        }
        match child.status() {
            Ok(status) => all_passed &= status.success(),
            Err(problem) => {
                eprintln!("cannot run {name}: {problem}");
                all_passed = false;
            }
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    if args.all {
        return run_each(&args);
    }
    let run = execute(&args, None);
    report(&args, &run);
    if args.trace {
        if let Err(problem) = write_trace(&args, &run) {
            eprintln!("cannot write the span file: {problem}");
            return ExitCode::from(2);
        }
    }
    println!("{}", result_json(&args, &run).to_json());
    if run.gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
