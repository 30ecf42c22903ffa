#!/usr/bin/env python3
"""Perf-regression gate over the repository benchmark (perfbench).

Usage: perf_gate.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are two checkouts of the repository: the commit a
change is measured against and the change itself. The benchmark command,
its workloads and its end-to-end metrics (with `better` and `bound`) come
from BASE_DIR's BENCHMARK.json, so a change cannot loosen its own gate.

For every workload the script runs PAIRS alternating base/head pairs of
SECONDS-second untraced runs, pair i at seed SEEDS[i] in both trees. It
fails if any run does not end with `"correct": true` and `"failed": 0`, or
if a head median is worse than the base median by more than the metric's
bound (relative: lower-better metrics may grow by at most `bound`,
higher-better ones shrink by at most `bound`). Beside each pair of medians
it prints the base runs' interquartile range and in how many of the pairs
the head run was better than its base run, so a reader can tell a shift
from run-to-run spread; neither enters the verdict.

Every invocation also re-judges the head medians with a synthetic 2x
regression applied (lower-better x2, higher-better /2). That verdict must
fail; if it passes, the gate cannot detect a regression and exits non-zero.

After the verdict, the script runs traced runs (`--trace 1`) per workload
at SEEDS[0] and SECONDS, two in the base tree and one in the head tree,
and prints every per-layer metric whose unit is `count` or `B` (bytes,
such as `encode.bytes_per_entity` and `store.append_bytes`). A count on
which the two base runs disagree depends on thread timing (such as
`sched.backpressure_stalls`); it is listed apart as timing-dependent and
never marked. Every other count repeats for a given seed, so a head value
that differs from it is marked MOVED: the change moved engine, store or
server work. Counts are reported, not judged, because a change may move
them on purpose.

Exit status: 0 when the real verdict passes and the injected one fails,
1 otherwise, 2 on a usage error.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 5
SEEDS = list(range(101, 101 + PAIRS))
INJECTED_FACTOR = 2.0


def run_once(tree, command, workload, seed, trace=0):
    """Runs one benchmark run in `tree`; returns (metrics, problem)."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    where = f"{workload} seed {seed} in {tree}"
    if proc.returncode != 0 or not lines:
        return {}, f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {}, f"{where}: last line is not JSON: {lines[-1][:200]}"
    metrics = {name: m["value"] for name, m in report.get("metrics", {}).items()}
    if report.get("correct") is not True or report.get("failed") != 0:
        return metrics, (f"{where}: correct={report.get('correct')} "
                         f"failed={report.get('failed')}: {proc.stderr.strip()[-500:]}")
    return metrics, None


def worsening(metric, base, head):
    """Relative change of `head` against `base`, positive when worse."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / base
    return change if metric["better"] == "lower" else -change


def judge(metrics, base_medians, head_medians):
    """Returns (rows, failed) for one workload's medians."""
    rows, failed = [], False
    for metric in metrics:
        name = metric["name"]
        if name not in base_medians or name not in head_medians:
            continue
        worse = worsening(metric, base_medians[name], head_medians[name])
        bad = worse > metric["bound"]
        failed |= bad
        rows.append((name, base_medians[name], head_medians[name], worse, metric["bound"], bad))
    return rows, failed


def inject(metrics, head_medians):
    """The head medians with a synthetic 2x regression on every metric."""
    better = {m["name"]: m["better"] for m in metrics}
    return {name: value * INJECTED_FACTOR if better.get(name) == "lower"
            else value / INJECTED_FACTOR
            for name, value in head_medians.items()}


def medians(runs):
    names = set().union(*runs) if runs else set()
    return {n: statistics.median(r[n] for r in runs if n in r) for n in sorted(names)}


def spread(metrics, runs):
    """Per metric: the base runs' interquartile range and the number of
    pairs in which the head run was better than its base run."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        pairs = [(b[name], h[name]) for b, h in zip(runs["base"], runs["head"])
                 if name in b and name in h]
        if len(pairs) < 2:
            continue
        q1, _, q3 = statistics.quantiles([b for b, _ in pairs], n=4)
        wins = sum(worsening(metric, b, h) < 0 for b, h in pairs)
        out[name] = (q3 - q1, f"{wins}/{len(pairs)}")
    return out


def print_rows(title, rows, stats=None):
    print(f"  {title}")
    for name, base, head, worse, bound, bad in rows:
        verdict = "FAIL" if bad else "ok"
        extra = ""
        if stats and name in stats:
            iqr, wins = stats[name]
            extra = f"  base IQR {iqr:>10.4f}  head better {wins:>5}"
        print(f"    {name:<24} base {base:>12.4f}  head {head:>12.4f}  "
              f"worse {worse:>+8.1%}  bound {bound:.0%}{extra}  {verdict}")


def print_counts(spec, base_dir, head_dir):
    """Prints traced count and byte metrics per workload: two base runs
    beside one head run, with counts the base runs disagree on listed
    apart."""
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
    print(f"count and byte metrics (two traced base runs, one traced head run, "
          f"seed {SEEDS[0]}, {SECONDS} s; not part of the verdict)")
    for workload in (w["name"] for w in spec["workloads"]):
        traced = {}
        for side, tree in (("base", base_dir), ("base2", base_dir), ("head", head_dir)):
            traced[side], problem = run_once(tree, spec["command"], workload, SEEDS[0], trace=1)
            if problem:
                print(f"  traced run failed: {problem}")
        values = {n: [traced[side].get(n) for side in ("base", "base2", "head")] for n in counts}
        repeatable = [n for n in counts if values[n][0] == values[n][1]]
        timing = [n for n in counts if n not in repeatable]
        moved = [n for n in repeatable if values[n][0] != values[n][2]]
        print(f"  {workload}: {len(moved)} of {len(repeatable)} repeatable counts moved; "
              f"{len(timing)} timing-dependent")
        for name in repeatable:
            base, _, head = values[name]
            mark = "MOVED" if name in moved else ""
            print(f"    {name:<32} base {base!s:>14}  head {head!s:>14}  {mark}")
        if timing:
            print("    timing-dependent (the two base runs disagree):")
        for name in timing:
            base, base2, head = values[name]
            print(f"    {name:<32} base {base!s:>14} / {base2!s:<14} head {head!s:>14}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base_dir, head_dir = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    spec = json.loads((base_dir / "BENCHMARK.json").read_text())
    command, metrics = spec["command"], spec["end_to_end"]

    problems, real_failed, injected_failed = [], False, False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
            for side in order:
                tree = base_dir if side == "base" else head_dir
                values, problem = run_once(tree, command, workload, SEEDS[pair])
                if problem:
                    problems.append(problem)
                runs[side].append(values)
        base_medians, head_medians = medians(runs["base"]), medians(runs["head"])
        rows, failed = judge(metrics, base_medians, head_medians)
        real_failed |= failed
        print(f"{workload}: {'FAIL' if failed else 'ok'} "
              f"({PAIRS} pairs, {SECONDS} s runs, seeds {SEEDS[:PAIRS]})")
        print_rows("head vs base", rows, spread(metrics, runs))
        injected_rows, injected = judge(metrics, base_medians, inject(metrics, head_medians))
        injected_failed |= injected
        print_rows(f"head with an injected {INJECTED_FACTOR:g}x regression", injected_rows)

    for problem in problems:
        print(f"output check failed: {problem}")
    ok = not problems and not real_failed
    print(f"verdict: {'pass' if ok else 'FAIL'}")
    print(f"injected {INJECTED_FACTOR:g}x regression verdict: "
          f"{'FAIL (the gate can trip)' if injected_failed else 'pass (the gate cannot trip)'}")
    print_counts(spec, base_dir, head_dir)
    return 0 if ok and injected_failed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
