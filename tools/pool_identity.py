"""Print the census outcome of every gate in the benchmark's reference pools.

    python3 tools/pool_identity.py [CHECKOUT] > outcomes.jsonl

``CHECKOUT`` (default: the checkout holding this script) is the root of a
ctckit checkout; the package is imported from its ``src/`` and the pools are
read, never written, from its ``perfbench/reference/census_4x2.json`` and
``census_3x3.json``.  Each pool gate goes through ``census._classify_one``
under the pool's census semantics, with one BLAS thread.  Output is one JSON
line per gate: the verdict, ``repr`` of both jumps, the witness digest and
the text of every ``SolverDiagnostic`` its solves raised, recorded by
wrapping ``discontinuity.fixed_point_set``; then one line per pool with the
config hash of its semantics next to the hash the reference holds.

A change is bit-identical on valid census input when the outputs of the
parent checkout and of the change are equal:

    python3 tools/pool_identity.py ../parent > parent.jsonl
    python3 tools/pool_identity.py > change.jsonl
    diff parent.jsonl change.jsonl

Digests hash full-precision floats, so compare outputs of one host only.
Both pools take about a minute on one core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

POOLS = ("census_4x2", "census_3x3")


def main(argv):
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    from ctckit import census, discontinuity
    from ctckit.deutsch import SolverDiagnostic

    diagnostics = []
    solve = discontinuity.fixed_point_set

    def recording_solve(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except SolverDiagnostic as exc:
            diagnostics.append(str(exc))
            raise

    discontinuity.fixed_point_set = recording_solve
    for name in POOLS:
        ref = json.loads((root / "perfbench" / "reference" / f"{name}.json").read_text())
        config = census.CensusConfig(**ref["semantics"])
        for perm, *_ in ref["records"]:
            diagnostics.clear()
            rec = census._classify_one(tuple(perm), config)
            print(json.dumps({
                "pool": name, "permutation": perm, "verdict": rec.verdict,
                "sigma_jump": repr(rec.sigma_jump), "rho_hat_jump": repr(rec.rho_hat_jump),
                "witness_digest": rec.witness_digest, "diagnostics": diagnostics,
            }), flush=True)
        print(json.dumps({"pool": name, "config_hash": config.config_hash(),
                          "reference_hash": ref["config_hash"]}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
