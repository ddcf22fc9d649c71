"""Run the benchmark in two checkouts as alternating pairs and compare them.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N --seed0 S

``PARENT`` and ``CHANGE`` are roots of two ctckit checkouts.  Pair ``i``
(1-based) runs ``perfbench/run.py --workload W --seed S+i-1 --trace 0`` once
in each checkout, one process at a time, the parent first in odd pairs and
the change first in even ones, with bytecode writing off.  Each run lasts
the ``run_seconds`` of ``CHANGE``'s ``BENCHMARK.json``.  A run that exits
non-zero or reports ``"correct": false`` stops the tool with its output and
exit code 1.

One line per pair gives each side's round count, read from the run's
``report`` line, and its end-to-end metrics as the pair ends; a run keeps
every round, so a memory metric can move with the number of rounds that fit.
Then, for each end-to-end metric of ``BENCHMARK.json``, one line gives the
parent's and the change's median with their quartiles (inclusive method),
the change of the median, and in how many pairs the change read better.
A last line gives each side's share of failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds):
    """The result line of one benchmark run in ``checkout``, with the round
    count of its ``report`` line as ``"rounds"``; exits on failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.exit(f"{checkout}: seed {seed} exited {proc.returncode}"
                 + ("" if result is None else " with \"correct\": false"))
    report = next(line for line in lines if line.startswith("report "))
    result["rounds"] = json.loads(report[len("report "):])["rounds"]
    return result


def summary(name, better, parent, change):
    """One line: per-side median [q1-q3], the median's change, better pairs."""
    def spread(values):
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return f"{q2:.6g} [{q1:.6g}-{q3:.6g}]"

    p50, c50 = statistics.median(parent), statistics.median(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    delta = f"{100 * (c50 - p50) / p50:+.1f} %" if p50 else "n/a"
    return (f"{name}: {spread(parent)} -> {spread(change)} ({delta}, "
            f"change better in {wins}/{len(parent)} pairs, {better} is better)")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(sides[side], args.workload, seed, bench["run_seconds"]))
        parent, change = results["parent"][-1], results["change"][-1]
        print(f"pair {i + 1} seed {seed} {order[0]} first: "
              f"rounds {parent['rounds']} -> {change['rounds']}; " + "; ".join(
                  f"{name} {parent['metrics'][name]['value']:.6g} -> "
                  f"{change['metrics'][name]['value']:.6g}" for name, _ in metrics), flush=True)

    for name, better in metrics:
        parent, change = ([r["metrics"][name]["value"] for r in results[side]]
                          for side in ("parent", "change"))
        print(summary(name, better, parent, change))
    print("failed operations: " + "; ".join(
        f"{side} {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
        for side, rs in results.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
