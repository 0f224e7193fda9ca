#!/usr/bin/env bash
# Builds the benchmark in release and runs it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--quick] [--self-test]
#
# One workload runs in one process; `all` (the default) runs each workload in
# a fresh process, so peak memory is per workload. The last line each process
# prints on stdout is its result as one JSON object; the exit code is
# non-zero if any correctness check failed. Run from anywhere inside the
# checkout; nothing outside it is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Cargo's progress goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

case " $* " in
*" --workload "* | *" --self-test "*) ;;
*) set -- --workload all "$@" ;;
esac
exec "$CARGO_TARGET_DIR/release/bneck-benchmark" --out "$here/out" "$@"
