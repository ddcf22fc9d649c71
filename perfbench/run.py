"""ctckit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload census_4x2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics of the workload;
with ``--trace 1`` it holds the per-layer metrics of one traced round, plus
the tracing overhead against untraced rounds of the same inputs.  Every
end-to-end time is calibrated to the reference host speed of
:mod:`calibrate`; the raw times are in the ``report`` line.  Human readable
lines come first; the last line of standard output is the result.
``--setup-only`` stops at the first timed operation and prints the raw
set-up time and its calibration factor; ``run.py`` starts itself that way
to time further cold starts.
The exit code is 0 when every correctness gate passed, 1 when one failed and
2 when the benchmark could not run at all.
"""

import os

# One BLAS thread for every run, set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import time  # noqa: E402

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
# Cold starts timed per run for setup_s, this process's own included.
SETUP_PROCESSES = 9


def fail(message):
    print(f"benchmark cannot run: {message}", file=sys.stderr)
    sys.exit(2)


def declared_metrics():
    """``(name, unit)`` of the end-to-end and per-layer metrics in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


def import_package():
    src = ROOT / "src"
    if not (src / "ctckit" / "__init__.py").is_file():
        fail(f"no ctckit package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import ctckit

    if Path(ctckit.__file__).resolve().parent != (src / "ctckit").resolve():
        fail(f"imported ctckit from {ctckit.__file__}, not from {src}")


def blas_info():
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_pinned": BLAS_THREADS, "threads_reported": threads}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(load_at_start):
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "loadavg_start": list(load_at_start),
        "machine": platform.machine(),
    }


def tail(values):
    """Value with exactly ten samples above it, its percentile and the count.

    With ten samples or fewer no percentile has ten beyond it; the maximum is
    reported and labelled as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def cold_setup_s(args):
    """Scaled set-up time of a fresh process running the same workload and seed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    raw, factor = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(factor)


def per_layer_metrics(tracer, untraced_walls, traced_walls, first_traced):
    table = tracer.layer_table()
    c = tracer.counters

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def busy(name):
        return table.get(name, {}).get("busy_s", 0.0)

    def per_call(name):
        return 1e6 * busy(name) / calls(name) if calls(name) else 0.0

    def layer_self(layer):
        return sum(row["self_s"] for name, row in table.items() if name.startswith(layer + "."))

    gates = calls("discontinuity.classify")
    solves_ok = c["deutsch.solves_ok"]
    values = {
        "deutsch.fixed_point_set.calls": calls("deutsch.fixed_point_set"),
        "deutsch.fixed_point_set.busy_s": busy("deutsch.fixed_point_set"),
        "deutsch.fixed_point_set.us_per_call": per_call("deutsch.fixed_point_set"),
        "deutsch.build_superoperator.busy_s": busy("deutsch.build_superoperator"),
        "deutsch.build_superoperator.us_per_call": per_call("deutsch.build_superoperator"),
        "deutsch.evolve_out.busy_s": busy("deutsch.evolve_out"),
        "deutsch.evolve_out.us_per_call": per_call("deutsch.evolve_out"),
        "deutsch.solver_diagnostics": c["deutsch.solver_diagnostics"],
        "deutsch.cesaro_iterations": c["deutsch.cesaro_iterations"],
        "deutsch.degenerate_frac": c["deutsch.degenerate"] / solves_ok if solves_ok else 0.0,
        "deutsch.membership.calls": calls("deutsch.membership"),
        "deutsch.membership.busy_s": busy("deutsch.membership"),
        "deutsch.membership.us_per_call": per_call("deutsch.membership"),
        "states.DensityOperator.constructions": calls("states.DensityOperator"),
        "states.DensityOperator.us_per_call": per_call("states.DensityOperator"),
        "basis.from_traceless.calls": calls("basis.from_traceless"),
        "basis.from_traceless.us_per_call": per_call("basis.from_traceless"),
        "basis.traceless_coords.calls": calls("basis.traceless_coords"),
        "basis.traceless_coords.us_per_call": per_call("basis.traceless_coords"),
        "selection.select.calls": calls("selection.select"),
        "selection.select.busy_s": busy("selection.select"),
        "selection.select.us_per_call": per_call("selection.select"),
        "selection.iterations": c["selection.iterations"],
        "selection.nonconverged": c["selection.nonconverged"],
        "discontinuity.self_s": layer_self("discontinuity"),
        "discontinuity.solves_per_gate":
            calls("deutsch.fixed_point_set") / gates if gates else 0.0,
        "discontinuity.refinements_per_gate":
            c["discontinuity.refinements"] / gates if gates else 0.0,
        "states.trace_distance.calls": calls("states.trace_distance"),
        "states.trace_distance.us_per_call": per_call("states.trace_distance"),
        "linalg.conjugate.calls": calls("linalg.conjugate"),
        "linalg.conjugate.us_per_call": per_call("linalg.conjugate"),
        "census.self_s": layer_self("census"),
        "census.bytes_written": first_traced.info.get("bytes_written", 0),
        "census.summarize.busy_s": busy("census.summarize"),
        "cli.self_s": layer_self("cli"),
        "trace.overhead_frac": sum(traced_walls) / sum(untraced_walls) - 1.0,
        "trace.spans": len(tracer.start),
    }
    return values, table


def main(argv=None):
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    end_to_end, per_layer = declared_metrics()
    import_package()
    import workloads
    from calibrate import Calibrator
    from tracer import Tracer

    import_s = time.perf_counter() - _T_START
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    WORK_DIR.mkdir(exist_ok=True)
    env = environment(load_at_start)
    wl = workloads.make_workload(args.workload, WORK_DIR, args.seed)
    wl.setup()
    wl.warm_up()
    setup_raw = time.perf_counter() - _T_START
    cal = Calibrator()
    cal.sample()
    setup_factor = cal.factor(_T_START, cal.stamps[-1])
    if args.setup_only:
        print(setup_raw, setup_factor)
        return 0
    # Each set-up runs cold, in a process of its own: imports, lru caches
    # and BLAS start empty, as they do for a user.
    setups = [(setup_raw, setup_factor)]
    setups += [cold_setup_s(args) for _ in range(SETUP_PROCESSES - 1)]
    setup_s = statistics.median(raw * factor for raw, factor in setups)

    # Rounds repeat the whole sample until the next round would end past
    # --seconds; an untraced run makes at least two.  A traced run makes an
    # untraced and a traced round in turn, so both see the machine alike.
    # The calibration kernel is sampled before, during and after every
    # untraced round; traced rounds run without it.
    plain, traced, tracer = [], [], None
    run_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        with cal:
            plain.append(wl.run_round())
        if args.trace:
            t = Tracer(wl.op_boundary)
            with t:
                traced.append(wl.run_round())
            if tracer is None:
                tracer = t
                t.write_spans(WORK_DIR / f"spans-{args.workload}.csv")
        now = time.perf_counter()
        if (len(plain) >= 2 - args.trace
                and now - run_start + (now - round_start) > args.seconds):
            break

    def net_s(start, end):
        """Seconds of ``[start, end]`` not spent on calibration samples."""
        return end - start - cal.busy(start, end)

    every = plain + traced
    problems = [p for res in every for p in res.problems]
    attempted = sum(res.attempted for res in every)
    failed = sum(res.failed for res in every)
    if any(res.output != plain[0].output for res in every):
        problems.append("rounds of the same sample wrote different outputs")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(every), "env": env}

    if args.trace:
        values, table = per_layer_metrics(
            tracer, [net_s(r.start, r.end) * cal.factor(r.start, r.end)
                     for r in plain[:len(traced)]],
            [(r.end - r.start) * cal.factor(r.start, r.end) for r in traced],
            traced[0])
        expected = traced[0].info.get("expected_solves")
        if expected is not None:
            expected += 2 * tracer.counters["discontinuity.refinements"]
            if values["deutsch.fixed_point_set.calls"] != expected:
                problems.append(f"traced {values['deutsch.fixed_point_set.calls']} solves, "
                                f"the probe structure implies {expected}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer}
        report["layers"] = table
    else:
        # Every timing leaves out the calibration samples taken inside it and
        # is scaled by the calibration factor around it.  wall_s is the
        # median over rounds.  Each operation of the sample runs once per
        # round; its latency is the median over rounds, and the p50 and the
        # tail are taken over those latencies, so they follow the inputs and
        # not a stall of the host that hit one call.  A round that failed
        # part-way times fewer operations; the run is incorrect then, and
        # the metrics only need to stay printable.
        raw_walls = [net_s(r.start, r.end) for r in plain]
        round_factor = [cal.factor(r.start, r.end) for r in plain]
        walls = [w * f for w, f in zip(raw_walls, round_factor)]
        per_op = {}
        for r in plain:
            for j, (a, b) in enumerate(r.op_spans):
                per_op.setdefault(j, []).append(1e3 * net_s(a, b) * cal.factor(a, b))
        op_ms = [statistics.median(v) for v in per_op.values()] or [0.0]
        tail_ms, tail_pct, n_ops = tail(op_ms)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(
                (r.attempted - r.failed) / w for r, w in zip(plain, walls)),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_tail": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}
        report.update(
            ops_failed_frac=failed / attempted, op_ms_tail_percentile=tail_pct,
            operations=n_ops, import_s=import_s,
            setup_raw_s=[raw for raw, _ in setups], setup_factor=[f for _, f in setups],
            round_wall_raw_s=raw_walls, round_factor=round_factor,
            wall_raw_s=statistics.median(raw_walls),
            kernel_ms=cal.kernel_ms,
            diagnostics=plain[0].info.get("diagnostics", 0))

    correct = not problems and failed == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(every)} rounds, {attempted} operations, {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'op_ms_tail is the percentile':42s} p{report['op_ms_tail_percentile']:.1f} "
              f"of {report['operations']} operations, each the median of "
              f"{len(plain)} rounds")
        print(f"  {'ops_failed_frac':42s} {report['ops_failed_frac']:.6g} ratio")
    for p in problems[:20]:
        print(f"  PROBLEM: {p}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
