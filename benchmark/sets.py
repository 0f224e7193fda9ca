#!/usr/bin/env python3
"""Repeated runs of the benchmark, judged against BENCHMARK.json's bounds.

    sets.py compare [--seeds N] [--workload NAME]... [--seconds S]
    sets.py ab REV_A REV_B [--pairs N] [--workload NAME]... [--seconds S]

`compare` runs the benchmark twice over seeds 1..N on the code as it is and
checks, per end-to-end metric and workload, that each set's spread (the
distance between the quartiles as a share of the median) stays within the
metric's bound and that the second set's median is not worse than the
first's by more than the bound. It is the check the driver makes. A metric
whose ten values repeat exactly in the second set is marked `identical`: the
counters of the simulator workloads must be. Every run's values are kept in
benchmark/out/compare.json.

`ab` measures two git revisions with the benchmark code of the working tree:
each revision is exported with `git archive` into its own directory under
benchmark/out/ab/, built once, and run in interleaved pairs whose order
alternates. Per metric and workload it prints both medians and quartiles, the
pairs each side won, and the verdict by the rule of the choosing-metrics
guide: a gain needs nine tenths of the pairs and medians further apart than
the distance between side A's own quartiles; a regression is a median worse
than side A's by more than the bound.

Only the standard library is used.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def contract(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, env=None):
    """One untraced run; returns {metric: value}. Raises on a failed run."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def chosen_workloads(spec, names):
    known = [w["name"] for w in spec["workloads"]]
    for name in names or []:
        if name not in known:
            raise SystemExit(f"unknown workload {name}; known: {', '.join(known)}")
    return names or known


def compare(args):
    spec = contract()
    seconds = args.seconds or spec["run_seconds"]
    workloads = chosen_workloads(spec, args.workload)
    sets = []
    for number in range(2):
        seeds = range(1, 1 + args.seeds)
        results = {w: [] for w in workloads}
        for workload in workloads:
            for seed in seeds:
                results[workload].append(run_once(ROOT, spec, workload, seed, seconds))
                print(f"set {number + 1} {workload} seed {seed} done", file=sys.stderr)
        sets.append(results)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "compare.json"), "w") as f:
        json.dump(sets, f, indent=1)
    print(f"{'workload':<16}{'metric':<18}{'median 1':>14}{'median 2':>14}"
          f"{'spread 1':>10}{'spread 2':>10}{'2 vs 1':>9}{'bound':>7}  verdict")
    failed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = [r[name] for r in sets[0][workload]]
            second = [r[name] for r in sets[1][workload]]
            drift = worse_by(metric, statistics.median(first), statistics.median(second))
            spreads = (spread(first), spread(second))
            problems = []
            if name != "setup_s" and max(spreads) > bound:
                problems.append("spread over bound")
            if drift > bound:
                problems.append("second set worse than bound")
            if not problems and name != "setup_s" and max(spreads) > bound / 3:
                problems.append("(spread over a third of the bound)")
            failed |= any(not p.startswith("(") for p in problems)
            if first == second:
                problems.append("(identical)")
            print(f"{workload:<16}{name:<18}{statistics.median(first):>14.6g}"
                  f"{statistics.median(second):>14.6g}{spreads[0]:>10.2%}{spreads[1]:>10.2%}"
                  f"{drift:>+9.2%}{bound:>7.0%}  {'; '.join(problems) or 'ok'}")
    return 1 if failed else 0


def export(rev, name):
    """Exports `rev` with the working tree's benchmark into out/ab/<name>."""
    target = os.path.join(HERE, "out", "ab", name)
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", target], input=archive.stdout, check=True)
    # Both sides are measured by the same benchmark code: the working tree's.
    spec = contract()
    for path in spec["paths"]:
        shutil.rmtree(os.path.join(target, path), ignore_errors=True)
        shutil.copytree(
            os.path.join(ROOT, path), os.path.join(target, path),
            ignore=shutil.ignore_patterns("target", "out"),
        )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), target)
    return target


def ab(args):
    spec = contract()
    seconds = args.seconds or spec["run_seconds"]
    workloads = chosen_workloads(spec, args.workload)
    sides = {}
    for label, rev in (("A", args.rev_a), ("B", args.rev_b)):
        root = export(rev, label)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
        sides[label] = (root, env)
    results = {w: {"A": [], "B": []} for w in workloads}
    for workload in workloads:
        for pair in range(args.pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for label in order:
                root, env = sides[label]
                results[workload][label].append(
                    run_once(root, spec, workload, 1 + pair, seconds, env))
            print(f"{workload} pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    print(f"A = {args.rev_a}, B = {args.rev_b}, {args.pairs} pairs, seeds 1..{args.pairs}")
    print(f"{'workload':<16}{'metric':<18}{'A q1':>12}{'A median':>12}{'A q3':>12}"
          f"{'B q1':>12}{'B median':>12}{'B q3':>12}{'B wins':>8}{'A wins':>8}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r[name] for r in results[workload]["A"]]
            b = [r[name] for r in results[workload]["B"]]
            b_wins = sum(worse_by(metric, x, y) < 0 for x, y in zip(a, b))
            a_wins = sum(worse_by(metric, x, y) > 0 for x, y in zip(a, b))
            aq, bq = quartiles(a), quartiles(b)
            drift = worse_by(metric, aq[1], bq[1])
            if args.pairs < 10:
                verdict = "no verdict (fewer than ten pairs)"
            elif drift > metric["bound"]:
                verdict = f"REGRESSION {drift:+.1%} (bound {metric['bound']:.0%})"
            elif b_wins >= 0.9 * args.pairs and abs(bq[1] - aq[1]) > aq[2] - aq[0]:
                verdict = f"gain {-drift:+.1%}"
            elif aq[2] - aq[0] > metric["bound"] * aq[1] and not (b_wins == args.pairs):
                verdict = "unresolved (A's spread exceeds the bound)"
            else:
                verdict = "no change shown"
            print(f"{workload:<16}{name:<18}{aq[0]:>12.5g}{aq[1]:>12.5g}{aq[2]:>12.5g}"
                  f"{bq[0]:>12.5g}{bq[1]:>12.5g}{bq[2]:>12.5g}{b_wins:>8}{a_wins:>8}  {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    c = commands.add_parser("compare")
    c.add_argument("--seeds", type=int, default=10)
    a = commands.add_parser("ab")
    a.add_argument("rev_a")
    a.add_argument("rev_b")
    a.add_argument("--pairs", type=int, default=10)
    for sub in (c, a):
        sub.add_argument("--workload", action="append")
        sub.add_argument("--seconds", type=int)
    args = parser.parse_args()
    sys.exit(compare(args) if args.command == "compare" else ab(args))


if __name__ == "__main__":
    main()
