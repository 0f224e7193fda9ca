#!/usr/bin/env bash
# Smoke-runs every Criterion bench with a tiny wall-clock budget and fails if
# any benchmark panics, records no iterations, or drifts from the checked-in
# name manifest (crates/bench/bench-manifest.txt).
#
# Usage: [BNECK_BENCH_BUDGET_MS=25] scripts/bench_smoke.sh
#
# Drift is checked in BOTH directions:
#   * a benchmark name in the manifest that no longer runs fails the diff;
#   * a bench target that exists but contributes nothing fails too — every
#     file in crates/bench/benches/ must be declared as a [[bench]] target in
#     crates/bench/Cargo.toml, and every declared target must emit at least
#     one `bench ` line when run (so a new or renamed target can't silently
#     skip the manifest).
#
# When adding, renaming or removing a benchmark intentionally, regenerate the
# manifest with:
#   BNECK_BENCH_BUDGET_MS=25 cargo bench 2>/dev/null \
#     | grep '^bench ' | awk '{print $2}' | sort > crates/bench/bench-manifest.txt
#
# The convergence_at_scale suite runs whole multi-thousand-session
# simulations per iteration, so even at a tiny budget each of its benchmarks
# costs a couple of wall-clock seconds (one warm-up + one measured run); the
# 50k-session presets live in the `bneck` CLI's scale specs
# (`bneck sweep --sessions 50000`, CI job scale-smoke), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every src/bin/*.rs must be a declared [[bin]] target (an undeclared file
# would silently never build).
bins="$(sed -n '/^\[\[bin\]\]/,/^$/{s/^name = "\(.*\)"$/\1/p}' crates/bench/Cargo.toml)"
for f in crates/bench/src/bin/*.rs; do
  base="$(basename "$f" .rs)"
  if ! printf '%s\n' "$bins" | grep -qx "$base"; then
    echo "bench smoke FAILED: $f has no [[bin]] entry in crates/bench/Cargo.toml" >&2
    exit 1
  fi
done

budget="${BNECK_BENCH_BUDGET_MS:-25}"
out="$(mktemp)"
names="$(mktemp)"
trap 'rm -f "$out" "$names"' EXIT

# The declared [[bench]] targets of the bench crate.
targets="$(sed -n '/^\[\[bench\]\]/,/^$/{s/^name = "\(.*\)"$/\1/p}' crates/bench/Cargo.toml)"
if [ -z "$targets" ]; then
  echo "bench smoke FAILED: no [[bench]] targets found in crates/bench/Cargo.toml" >&2
  exit 1
fi

# Every bench source file must be declared (an undeclared file would never
# run, silently escaping both the smoke run and the manifest).
for f in crates/bench/benches/*.rs; do
  base="$(basename "$f" .rs)"
  if ! printf '%s\n' "$targets" | grep -qx "$base"; then
    echo "bench smoke FAILED: $f has no [[bench]] entry in crates/bench/Cargo.toml" >&2
    exit 1
  fi
done

# Run each declared target separately so a target that emits no benchmarks at
# all is caught (one combined run can't attribute names to targets). A
# panicking bench binary makes cargo exit non-zero, which set -e propagates.
: > "$names"
for target in $targets; do
  BNECK_BENCH_BUDGET_MS="$budget" cargo bench --bench "$target" 2>&1 | tee "$out"
  if grep -q 'no iterations recorded' "$out"; then
    echo "bench smoke FAILED: a benchmark in target $target recorded no iterations" >&2
    exit 1
  fi
  if ! grep -q '^bench ' "$out"; then
    echo "bench smoke FAILED: bench target $target emitted no benchmarks" >&2
    echo "(every [[bench]] target must run at least one benchmark and appear in the manifest)" >&2
    exit 1
  fi
  grep '^bench ' "$out" | awk '{print $2}' >> "$names"
done

sort "$names" -o "$names"
if ! diff -u crates/bench/bench-manifest.txt "$names"; then
  echo "bench smoke FAILED: benchmark name set diverged from crates/bench/bench-manifest.txt" >&2
  echo "(update the manifest if the change is intentional; see this script's header)" >&2
  exit 1
fi

echo "bench smoke OK: $(wc -l < "$names") benchmarks across $(printf '%s\n' "$targets" | wc -l) targets"
