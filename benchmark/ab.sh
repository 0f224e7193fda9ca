#!/usr/bin/env bash
# Measures two git revisions against each other with the working tree's
# benchmark code, in interleaved pairs whose order alternates, and reports
# medians, quartiles and pair wins per metric × workload — the one definition
# of "faster" (and of "no regression") for this repository.
#
#   benchmark/ab.sh REV_A REV_B [--pairs N] [--workload NAME]... [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/sets.py" ab "$@"
