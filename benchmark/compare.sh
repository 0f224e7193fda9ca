#!/usr/bin/env bash
# Runs the untraced benchmark as two sets of seeds on the code as it is and
# checks every end-to-end metric of every workload against its bound in
# BENCHMARK.json: one row per metric × workload, non-zero exit on a breach.
#
#   benchmark/compare.sh [--seeds N] [--workload NAME]... [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/sets.py" compare "$@"
