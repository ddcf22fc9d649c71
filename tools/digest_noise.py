"""Print how often relative float noise moves the witness digest of a pinned census gate.

    python3 tools/digest_noise.py [CHECKOUT] [--gates N]

``CHECKOUT`` (default: the checkout holding this script) is the root of a
ctckit checkout; the package is imported from its ``src/`` and the census
config is read from its ``results/census_sample500_seed42.jsonl``.  The
first ``N`` gates (default 500, the whole sample) of that config go through
``census._classify_one`` with one BLAS thread; the classification of each is
kept by wrapping ``census.classify``, and the count of gates whose digest
equals its pinned record is printed first.  Then, for each relative noise
``delta`` of :data:`DELTAS`, every float of every witness is multiplied by
``1 + delta * u``, with ``u`` drawn uniformly from [-1, 1] by a generator
seeded with :data:`SEED`, and one line gives the share of gates whose
digest changed.  Such noise stands in for what another BLAS, CPU or numpy
build may leave in the last digits of a value; the true size of that noise
between two hosts is not measured here.  The 500 gates take about 15 s on one core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

PINNED = Path("results") / "census_sample500_seed42.jsonl"
DELTAS = (1e-16, 1e-15, 1e-14, 1e-13, 1e-12)
SEED = 0


def perturbed(tree, noise):
    """A copy of ``tree`` with every float ``x`` replaced by ``x * (1 + next(noise))``."""
    if type(tree) is dict:
        return {key: perturbed(value, noise) for key, value in tree.items()}
    if type(tree) in (list, tuple):
        return [perturbed(value, noise) for value in tree]
    if isinstance(tree, float):
        return tree * (1.0 + next(noise))
    return tree


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parent.parent)
    parser.add_argument("--gates", type=int, default=500)
    args = parser.parse_args(argv)
    if args.gates < 1:
        parser.error("--gates must be at least 1")
    root = args.checkout.resolve()
    sys.path.insert(0, str(root / "src"))
    from ctckit import census
    from ctckit.discontinuity import GateClassification

    lines = (root / PINNED).read_text(encoding="utf-8").splitlines()
    config = census.CensusConfig.from_json(
        dict(json.loads(lines[0])["config"], out_path=os.devnull))
    pinned = [json.loads(line)["witness_digest"] for line in lines[1:]]
    perms = census._permutation_tuples(config)[:args.gates]
    classified = []
    classify = census.classify
    census.classify = lambda *a, **k: classified.append(classify(*a, **k)) or classified[-1]
    records = [census._classify_one(perm, config) for perm in perms]
    census.classify = classify
    matching = sum(rec.witness_digest == digest for rec, digest in zip(records, pinned))
    print(f"{root}: first {len(perms)} pinned gates, {matching} reproduce their pinned digest")
    rng = np.random.default_rng(SEED)
    for delta in DELTAS:
        moved = 0
        for cls in classified:
            noise = iter((delta * rng.uniform(-1.0, 1.0, 1 << 14)).tolist())
            noisy = GateClassification(**perturbed(cls.to_json(), noise))
            moved += noisy.witness_digest() != cls.witness_digest()
        print(f"relative noise {delta:.0e}: {moved}/{len(classified)} digests changed "
              f"({100 * moved / len(classified):.1f} %)")


if __name__ == "__main__":
    main(sys.argv[1:])
