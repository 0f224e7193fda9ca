//! The `bneck-xlint` binary: scans the workspace and exits non-zero on any
//! unannotated finding. See the crate docs for the rule table.

use bneck_lint::report::{rule_summary, ALL_RULES};
use bneck_lint::{find_root, run_workspace, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
bneck-xlint — hot-path allocation static analysis

USAGE:
  bneck-xlint [--json] [--root PATH] [--list-rules]

OPTIONS:
  --json        emit findings as JSON instead of human tables
  --root PATH   workspace root to scan (default: walk up from the
                current directory to the first one containing crates/)
  --list-rules  print the rule table and exit

EXIT STATUS:
  0 when the scan is clean, 1 on any finding, 2 on usage or I/O errors.

Suppress a finding only with an in-source annotation carrying a reason:
  // xlint: allow(HOT001, reason = \"one-time construction, before any event\")";

#[expect(
    clippy::disallowed_methods,
    reason = "the entry point is where the process arguments are read"
)]
fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--root requires a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in ALL_RULES {
                    println!("{rule}  {}", rule_summary(rule));
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
        Some(root) => root,
        None => {
            eprintln!("no workspace root found (no ancestor directory contains crates/)");
            return ExitCode::from(2);
        }
    };

    match run_workspace(&root, &Config::default()) {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("xlint: scan failed: {err}");
            ExitCode::from(2)
        }
    }
}
