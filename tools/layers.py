"""Print where the time of a pinned (4, 2) census gate goes, stage by stage.

    python3 tools/layers.py [CHECKOUT] [--gates N] [--rounds R]

``CHECKOUT`` (default: the checkout holding this script) is the root of a
ctckit checkout; the package is imported from its ``src/`` and the census
config is read from its ``results/census_sample500_seed42.jsonl`` header.
The first ``N`` gates (default 60) of that config's sample go through
``census._classify_one``, as a census classifies them, with one BLAS
thread, in this process, after one untimed gate has built the generated
probe states.

The first lines give the wall time per gate of each of ``R`` plain rounds
(default 3), then the time per gate of path analysis (``_analyze``) and of
the witness digest in those rounds, timed by wrapping the two; cProfile
roughly doubles these Python-bound stages, so their plain times are the
ones to compare.  Two more lines give, for each of ``R`` rounds, the plain
milliseconds per call of the two census stages outside ``classify``: the
draw of the pinned config's sample (``census._permutation_tuples``) and
the read of the pinned file (``census._read_census``), each the mean of
:data:`CALLS` calls.  Then comes the wall time per gate of one round under
cProfile, and one line per stage gives its cumulative milliseconds and its
calls per gate under cProfile: the probe call that builds probe records
(``_probe``, 0 calls where ``classify`` reads the solved-point table
itself), the solve of a probe call's new points (``_solve``, 0 calls where
the checkout has none), the coordinate chart
``HermitianBasis.traceless_coords`` (called by the superoperator build and
the limit test), the stacked solve cores, the per-point finish, selection
and emission, the stacked first step of the degenerate sets
(``selection._settle``, 0 calls where the checkout has none), the
optimiser's dispatcher, path analysis, the limit test and the witness
digest.  The limit test is ``deutsch._in_set`` where the checkout has it,
else ``deutsch.membership``.  Stages nest, so their times do not add up to
the total.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import cProfile  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

PINNED = Path("results") / "census_sample500_seed42.jsonl"
CALLS = 20  # calls per round of a census stage timed outside classify


def stages(limit_test):
    """``(module, function)`` of each stage, in call order."""
    return (("discontinuity", "_probe"), ("discontinuity", "_solve"),
            ("basis", "traceless_coords"), ("deutsch", "_cores"),
            ("deutsch", "fixed_point_set"), ("discontinuity", "_select_and_emit"),
            ("selection", "_settle"), ("selection", "select"), ("discontinuity", "_analyze"),
            ("deutsch", limit_test), ("discontinuity", "witness_digest"))


def stage_lines(stats, gates, wanted):
    """One line per stage of ``wanted``: cumulative ms and calls per gate."""
    totals = dict.fromkeys(wanted, (0, 0.0))
    for (filename, _, func), (_, calls, _, cumulative, _) in stats.stats.items():
        key = Path(filename).stem, func
        if key in totals and Path(filename).parent.name == "ctckit":
            totals[key] = totals[key][0] + calls, totals[key][1] + cumulative
    return [f"{module + '.' + func:34s} {1e3 * cumulative / gates:8.3f} ms/gate "
            f"{calls / gates:8.1f} calls/gate"
            for (module, func), (calls, cumulative) in totals.items()]


def wrap(owner, name, spent):
    """Replace ``owner.name`` by a wrapper that adds the seconds of each call
    to ``spent[-1]``, and return the original."""
    func = getattr(owner, name)

    @functools.wraps(func)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            spent[-1] += time.perf_counter() - t0

    setattr(owner, name, timed)
    return func


def ms_per_call(call):
    """Plain milliseconds per call of ``call()``, the mean of :data:`CALLS` calls."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        call()
    return 1e3 * (time.perf_counter() - t0) / CALLS


def ms_line(values):
    return " ".join(f"{ms:.3f}" for ms in values) + f" (best {min(values):.3f})"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parent.parent)
    parser.add_argument("--gates", type=int, default=60)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    if args.gates < 1 or args.rounds < 1:
        parser.error("--gates and --rounds must be at least 1")
    root = args.checkout.resolve()
    sys.path.insert(0, str(root / "src"))
    from ctckit import census, deutsch, discontinuity

    wanted = stages("_in_set" if hasattr(deutsch, "_in_set") else "membership")
    header = json.loads((root / PINNED).read_text(encoding="utf-8").splitlines()[0])
    config = census.CensusConfig.from_json(dict(header["config"], out_path=os.devnull))
    perms = census._permutation_tuples(config)[:args.gates]
    census._classify_one(perms[0], config)  # builds the generated probe states

    def one_round():
        t0 = time.perf_counter()
        for perm in perms:
            census._classify_one(perm, config)
        return 1e3 * (time.perf_counter() - t0) / len(perms)

    print(f"{root}: first {len(perms)} pinned gates, one BLAS thread")
    timed = ((discontinuity, "_analyze"), (discontinuity.GateClassification, "witness_digest"))
    spent = {name: [] for _, name in timed}  # seconds of each round
    originals = [(owner, name, wrap(owner, name, spent[name])) for owner, name in timed]
    plain = []
    for _ in range(args.rounds):
        for seconds in spent.values():
            seconds.append(0.0)
        plain.append(one_round())
    print("plain ms/gate: " + ms_line(plain))
    for name, seconds in spent.items():
        print(f"plain {name} ms/gate: " + ms_line([1e3 * s / len(perms) for s in seconds]))
    for owner, name, func in originals:
        setattr(owner, name, func)
    for name, call in (("_permutation_tuples", lambda: census._permutation_tuples(config)),
                       ("_read_census", lambda: census._read_census(root / PINNED))):
        print(f"plain census.{name} ms/call: "
              + ms_line([ms_per_call(call) for _ in range(args.rounds)]))
    profile = cProfile.Profile()
    profiled = profile.runcall(one_round)
    print(f"cProfile ms/gate: {profiled:.3f}")
    for line in stage_lines(pstats.Stats(profile), len(perms), wanted):
        print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
