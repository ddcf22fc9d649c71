"""Record the reference outputs the benchmark's correctness gates compare with.

    python3 perfbench/make_reference.py census_4x2 census_3x3 channel_dense

Run from the root of a checkout.  ``census_4x2`` re-runs the pinned 500-gate
census in ``results/`` and keeps the pinned verdicts and jumps, after
checking that the re-run reproduces them; ``census_3x3`` records a seeded
(3, 3) pool; ``channel_dense`` records ``ctc_channel`` outputs for a seeded
pool of dense gates.  Census references also hold, per gate, how many
``SolverDiagnostic`` it raised and how many selection iterations it spent.  Regenerate a reference only when a
change of the package is meant to change its outputs, and say so.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ctckit.census  # noqa: E402
import ctckit.discontinuity  # noqa: E402
import ctckit.selection  # noqa: E402
import ctckit.states  # noqa: E402
from tracer import _Patches, count_diagnostics  # noqa: E402
from workloads import JUMP_TOL, REFERENCE_DIR, channel_inputs  # noqa: E402

PINNED = ROOT / "results" / "census_sample500_seed42.jsonl"
CENSUS_3X3 = {"dim1": 3, "dim2": 3, "sample_size": 240, "seed": 7}
CHANNEL_POOL_SEED = 20091017
CHANNEL_PER_DIMS = 100


def census_with_work(config):
    """Run a census; return its records and, per gate, the ``SolverDiagnostic``
    raised and the selection iterations spent."""
    counter, iterations, per_gate = [0], [0], []
    classify, select = ctckit.discontinuity.classify, ctckit.discontinuity.select

    def counted_select(*args, **kwargs):
        sel = select(*args, **kwargs)
        iterations[0] += sel.iterations
        return sel

    def counted_classify(*args, **kwargs):
        before = counter[0], iterations[0]
        try:
            return classify(*args, **kwargs)
        finally:
            per_gate.append((counter[0] - before[0], iterations[0] - before[1]))

    if os.path.exists(config.out_path):
        os.remove(config.out_path)
    patches = _Patches()
    with count_diagnostics(counter):
        patches.replace(ctckit.census, "classify", counted_classify)
        patches.replace(ctckit.discontinuity, "select", counted_select)
        try:
            summary = ctckit.census.run_census(config)
        finally:
            patches.undo()
    with open(config.out_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh.read().splitlines()[1:]]
    return records, per_gate, summary


def census_reference(name, config, pinned=None):
    records, work, summary = census_with_work(config)
    if pinned is not None:
        if len(pinned) != len(records):
            raise SystemExit(f"re-run wrote {len(records)} records, pinned has {len(pinned)}")
        for got, want in zip(records, pinned):
            same = (got["permutation"] == want["permutation"]
                    and got["verdict"] == want["verdict"]
                    and abs(got["sigma_jump"] - want["sigma_jump"]) <= JUMP_TOL
                    and abs(got["rho_hat_jump"] - want["rho_hat_jump"]) <= JUMP_TOL)
            if not same:
                raise SystemExit(f"re-run differs from the pinned record {want}")
        records = pinned
    return {
        "workload": name,
        "semantics": config.semantics(),
        "config_hash": config.config_hash(),
        "summary_counts": summary.counts,
        "records": [[r["permutation"], r["verdict"], r["sigma_jump"], r["rho_hat_jump"], d, it]
                    for r, (d, it) in zip(records, work)],
    }


def make_census_4x2(work):
    with open(PINNED, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    semantics = {k: header["config"][k] for k in (
        "dim1", "dim2", "mode", "sample_size", "seed", "strategy", "epsilons",
        "jump_tol", "max_refinements")}
    config = ctckit.census.CensusConfig(**semantics, out_path=str(work / "ref_4x2.jsonl"))
    if config.config_hash() != header["config_hash"]:
        raise SystemExit("pinned header hash does not match its own semantics")
    return census_reference("census_4x2", config, [json.loads(x) for x in lines[1:]])


def make_census_3x3(work):
    config = ctckit.census.CensusConfig(
        mode="sample", max_refinements=1, out_path=str(work / "ref_3x3.jsonl"), **CENSUS_3X3)
    return census_reference("census_3x3", config)


def make_channel_dense(work):
    rho_hat = []
    for dims, u, m in channel_inputs(CHANNEL_POOL_SEED, CHANNEL_PER_DIMS):
        gate = ctckit.states.UnitaryGate(u, *dims)
        out, sel = ctckit.selection.ctc_channel(gate, ctckit.states.DensityOperator(m))
        if not sel.converged:
            raise SystemExit(f"selection did not converge on a {dims} case")
        flat = out.matrix.ravel()
        rho_hat.append([flat.real.tolist(), flat.imag.tolist()])
    return {"workload": "channel_dense", "pool_seed": CHANNEL_POOL_SEED,
            "per_dims": CHANNEL_PER_DIMS, "rho_hat": rho_hat}


MAKERS = {"census_4x2": make_census_4x2, "census_3x3": make_census_3x3,
          "channel_dense": make_channel_dense}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", choices=sorted(MAKERS))
    args = parser.parse_args()
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.names:
        ref = MAKERS[name](work)
        path = REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
