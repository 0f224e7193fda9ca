//! The one `bneck` CLI: drives every paper experiment from a declarative
//! spec. See `bneck help` (or `crate::cli`) for the subcommands.

#[expect(
    clippy::disallowed_methods,
    reason = "the entry point is where the process arguments are read"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(bneck_bench::cli::run_main(&args));
}
