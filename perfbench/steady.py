"""Run-to-run spread of every end-to-end metric, and a baseline file.

    python3 perfbench/steady.py --out perfbench/baseline/BENCH_0.json

Run from the root of a checkout.  The benchmark runs every workload once per
seed 1 to 10 with tracing off, taking the workloads in turn within each
seed, so a slow phase of the host lasting minutes spreads over all
workloads instead of landing on one.  Each metric's spread is the distance
between the first and third quartile of its values over their median
(``statistics.quantiles(values, n=4)``), shown next to the bound in
``BENCHMARK.json``.  Then two traced runs of seed 1 per workload check that
the per-layer counts repeat exactly and give the tracing overhead.  Runs are
sequential, so they do not compete with each other for the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))
# Per-layer metrics that count work and must repeat exactly for one seed.
# (census.bytes_written does not: records carry their wall time as text.)
EXACT = ("deutsch.fixed_point_set.calls", "deutsch.solver_diagnostics",
         "deutsch.cesaro_iterations", "selection.iterations", "selection.nonconverged",
         "states.DensityOperator.constructions", "basis.from_traceless.calls",
         "basis.traceless_coords.calls", "deutsch.membership.calls",
         "linalg.conjugate.calls", "states.trace_distance.calls", "trace.spans")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    report = next(json.loads(x[len("report "):]) for x in lines if x.startswith("report "))
    return result, report


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write every run's results here as JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    out = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}

    runs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            runs[name].append(run_once(bench, name, seed, 0))
        print(f"seed {seed} done", flush=True)

    for name in names:
        entry = {"env": runs[name][0][1]["env"], "metrics": {},
                 "runs": [r for r, _ in runs[name]],
                 "diagnostics": [rep["diagnostics"] for _, rep in runs[name]],
                 "round_wall_raw_s": [rep["round_wall_raw_s"] for _, rep in runs[name]],
                 "round_factor": [rep["round_factor"] for _, rep in runs[name]]}
        print(f"{name}: {len(SEEDS)} seeds", flush=True)
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs[name]]
            s = spread(values)
            s.update(bound=m["bound"], unit=m["unit"], values=values)
            entry["metrics"][m["name"]] = s
            flag = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:14s} median {s['median']:.6g} {m['unit']:5s} "
                  f"spread {s['spread']:.3f} bound {m['bound']} {flag}", flush=True)
        out["workloads"][name] = entry

    for name in names:
        traced = [run_once(bench, name, SEEDS[0], 1)[0]["metrics"] for _ in range(2)]
        differ = [k for k in EXACT if traced[0][k]["value"] != traced[1][k]["value"]]
        out["workloads"][name]["trace"] = {
            "seed": SEEDS[0],
            "per_layer": traced[0],
            "counts_repeat_exactly": not differ,
            "counts_that_differ": differ,
            "overhead_frac": [t["trace.overhead_frac"]["value"] for t in traced],
        }
        print(f"{name}: traced counts repeat exactly: {not differ} {differ}, "
              f"overhead {out['workloads'][name]['trace']['overhead_frac']}", flush=True)

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
