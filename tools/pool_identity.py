"""Print the census outcome of every reference-pool gate, then of a fixed CLI matrix.

    python3 tools/pool_identity.py [CHECKOUT] > outcomes.jsonl

``CHECKOUT`` (default: the checkout holding this script) is the root of a
ctckit checkout; the package is imported from its ``src/`` and the pools are
read, never written, from its ``perfbench/reference/census_4x2.json`` and
``census_3x3.json``.  Each pool gate goes through ``census._classify_one``
under the pool's census semantics, with one BLAS thread.  Output is one JSON
line per gate: the verdict, ``repr`` of both jumps, the witness digest, the
``witness_sha`` (sha256 of the ``sort_keys`` JSON of the classification's
``to_json()``, computed here by wrapping ``census.classify``) and the text of
every ``SolverDiagnostic`` its solves raised, recorded by wrapping
``discontinuity.fixed_point_set``.  Then comes one line per pool with the
config hash of its semantics next to the hash the reference holds.  Then the
first :data:`REFINING_GATES` gates of each pool are classified again at
``jump_tol`` 0.3 with ``max_refinements`` 2, where paths near the threshold
refine their grids (no pool setting does): one line per gate with the same
fields and the number of refinements used.  After each such line come two
routes a census does not take: ``classify`` of the same gate, at the same
settings, given every seventh generated family (the same fields), and
:func:`ctckit.probe` of one generated family on the pool's grid (its label
and the sha256 of the result, :func:`_probe_sha`).  Then one line gives the
error text of a given family whose direction wanders from its center, from
``probe`` and from ``classify``, and the ``eps`` of each call either made
to that direction.  Before it come the selection lines
(:func:`selection_lines`): for the same first gates of each pool, one line
per vertex center whose fixed-point set is degenerate, with the sha256 of
its null basis and what ``select`` gives under each of
:data:`SELECTION_RULES`.

Then each of the 22 commands of :data:`CLI_RUNS` runs as ``ctckit`` in its
own process, with one BLAS thread, in a temporary directory that holds the
input files :func:`write_inputs` makes, on valid input only.  One JSON line
per run gives its argv, exit code, and the sha256 of its stdout, its stderr
and each file it wrote, with the census records' ``wall_time`` masked.  The
output is 937 lines: 740 pool gates, 2 hashes, 40 refining gates, 40 given
and 40 probed gates, 52 degenerate centers, 1 wandering family and 22 runs.

A change is bit-identical on valid census and CLI input when the outputs of
the parent checkout and of the change are equal:

    python3 tools/pool_identity.py ../parent > parent.jsonl
    python3 tools/pool_identity.py > change.jsonl
    diff parent.jsonl change.jsonl

A ``witness_sha`` hashes the witness's full-precision floats, so compare
outputs of one host only.  The witness digest rounds them to 9 decimals; a
change that moves only how the digest is taken moves the ``witness_digest``
fields, and the CLI runs that print or write a digest, while every
``witness_sha`` stays equal.
The pools take about a minute on one core, the refining gates about 7 s,
their given-family and probe runs about 6 s more, the selection lines
about 1 s, and the CLI runs about 15 s.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

POOLS = ("census_4x2", "census_3x3")
REFINING_GATES = 20
REFINING = {"jump_tol": 0.3, "max_refinements": 2}

# The rules the selection lines apply, as ``SelectionRule`` keywords; None is
# ``select``'s default.
SELECTION_RULES = {
    "none": None,
    "min_entropy": {"kind": "min_entropy"},
    "constant_index": {"kind": "constant_index", "coordinates": (0.01, -0.01)},
    "one_step": {"max_iters": 1},
}

CLI_RUNS = (
    ("probe", "--paper-example", "--out", "probe_paper.csv"),
    ("probe", "--gate", "gate_ref.json"),
    ("probe", "--scenario", "paper.json", "--strategy", "vertex_pairs", "--epsilons", "0.3,0.1"),
    ("probe", "--gate", "gate_33.json", "--rule", "min-entropy"),
    ("probe", "--gate", "gate_dense.json"),
    ("classify", "--paper-example", "--out", "witness_paper.csv"),
    ("classify", "--gate", "gate_ref.json", "--jump-tol", "0.3", "--out", "witness_ref.csv"),
    ("classify", "--gate", "gate_33.json"),
    ("classify", "--gate", "gate_dense.json"),
    ("bloch-slice", "--paper-example", "--out", "slice_paper.csv"),
    ("bloch-slice", "--scenario", "identity.json", "--resolution", "51"),
    ("fixed-points", "--scenario", "paper.json", "--out", "fps_paper.json"),
    ("fixed-points", "--scenario", "gray.json"),
    ("fixed-points", "--scenario", "identity.json"),
    ("fixed-points", "--scenario", "dense.json", "--out", "fps_dense.json"),
    ("select", "--scenario", "paper.json", "--out", "select_paper.json"),
    ("select", "--scenario", "identity.json", "--rule", "constant"),
    ("select", "--scenario", "identity.json", "--rule", "min-entropy"),
    ("evolve", "--scenario", "paper.json", "--out", "evolve_paper.json"),
    ("evolve", "--scenario", "identity.json", "--rule", "constant"),
    ("evolve", "--scenario", "dense.json"),
    ("census", "--config", "census.json", "--summary-csv", "census_summary.csv"),
)


def write_inputs(directory):
    """Gate, scenario and census config files of :data:`CLI_RUNS` in ``directory``."""
    from ctckit.linalg import matrix_to_json

    ref_gate = {"dim1": 4, "dim2": 2, "perm": [4, 1, 3, 2, 0, 6, 5, 7]}
    q, r = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4, 2)) @ [1, 1j])
    dense = {"dim1": 2, "dim2": 2, **matrix_to_json(q * (np.diag(r) / abs(np.diag(r))))}
    inputs = {
        "gate_ref.json": ref_gate,
        "gate_33.json": {"dim1": 3, "dim2": 3, "perm": [6, 3, 4, 8, 1, 7, 0, 2, 5]},
        "gate_dense.json": dense,
        "dense.json": {"gate": dense, "rho": matrix_to_json(
            [[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])},
        "paper.json": {"gate": ref_gate, "rule": {"kind": "min_entropy"}, "rho": {"product": [
            matrix_to_json(np.diag([1, 0])), matrix_to_json(np.diag([0.9, 0.1]))]}},
        "gray.json": {"gate": {"dim1": 3, "dim2": 3, "perm": [6, 3, 4, 8, 1, 7, 0, 2, 5]},
                      "rho": matrix_to_json(np.diag([1e-4, 0, 1 - 1e-4]))},
        "identity.json": {"gate": {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]},
                          "rho": {"matrix": matrix_to_json([[0.7, 0.2], [0.2, 0.3]])}},
        "census.json": {"dim1": 2, "dim2": 2, "mode": "exhaustive", "out_path": "census.jsonl"},
    }
    for name, obj in inputs.items():
        (directory / name).write_text(json.dumps(obj))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _witness_sha(cls):
    """sha256 of the full-precision ``sort_keys`` JSON of a classification."""
    return _sha(json.dumps(cls.to_json(), sort_keys=True).encode())


def _probe_sha(result):
    """sha256 of a :class:`ProbeResult`: its label, its center set's ``k`` and
    particular state, and each record's fields, with every matrix and
    spectrum as bytes."""
    center = result.center_fps
    digest = hashlib.sha256(json.dumps([result.label, center.k]).encode())
    digest.update(center.particular.matrix.tobytes())
    for r in result.records:
        digest.update(json.dumps([r.direction, repr(r.epsilon), r.k, repr(r.entropy),
                                  r.error]).encode())
        for state in (r.sigma, r.rho_hat):
            if state is not None:
                digest.update(state.matrix.tobytes() + state.eigenvalues.tobytes())
    return digest.hexdigest()


def selection_lines(name, ref):
    """One JSON line per vertex center with a degenerate set (k > 0) of the
    first :data:`REFINING_GATES` gates of a pool: the sha256 of the set's
    null basis as one ``(k, d2, d2)`` array, and what ``select`` gives under
    each of :data:`SELECTION_RULES`, as the sha256 of the sigma matrix,
    ``repr`` of the entropy and of the gradient norm, the iterations and
    ``converged``, or the error text of a rule the set cannot meet."""
    from ctckit.deutsch import fixed_point_set
    from ctckit.discontinuity import generate_probe_families
    from ctckit.selection import SelectionRule, select
    from ctckit.states import UnitaryGate

    rules = {label: None if spec is None else SelectionRule(**spec)
             for label, spec in SELECTION_RULES.items()}
    semantics = ref["semantics"]
    for perm, *_ in ref["records"][:REFINING_GATES]:
        gate = UnitaryGate.from_permutation(semantics["dim1"], semantics["dim2"], perm)
        centers = {}
        for family in generate_probe_families(gate, semantics["strategy"]):
            centers.setdefault(family.center.matrix.tobytes(), family.center)
        for j, center in enumerate(centers.values()):
            fps = fixed_point_set(gate, center)
            if fps.k == 0:
                continue
            picks = {}
            for label, rule in rules.items():
                try:
                    sel = select(fps, rule)
                except ValueError as exc:
                    picks[label] = str(exc)
                    continue
                picks[label] = [_sha(sel.sigma.matrix.tobytes()), repr(sel.entropy),
                                sel.iterations, sel.converged, repr(sel.gradient_norm)]
            print(json.dumps({"selection_pool": name, "permutation": perm, "center": j,
                              "k": fps.k, "basis_sha": _sha(np.asarray(fps.basis).tobytes()),
                              "select": picks}), flush=True)


def wandering_family(ctckit):
    """The error text and direction calls of ``probe`` and ``classify`` given
    a family whose second direction moves away from its center."""
    from ctckit.reference import mixed_first_qubit, mixed_second_qubit, reference_center

    out = {}
    for entry in ("probe", "classify"):
        calls = []

        def wander(e):
            calls.append(e)
            return mixed_second_qubit(0.3 - e)

        family = ctckit.PathFamily(reference_center(), mixed_first_qubit, wander, "wander")
        try:
            if entry == "probe":
                ctckit.probe(ctckit.reference_gate(), family, (0.2, 0.1, 0.05))
            else:
                ctckit.classify(ctckit.reference_gate(), families=[family],
                                epsilons=(0.2, 0.1, 0.05))
            error = None
        except ValueError as exc:
            error = str(exc)
        out[entry] = {"error": error, "calls": calls}
    return out


def run_cli(root):
    env = {k: v for k, v in os.environ.items() if k != "CTCKIT_LOG"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    entry = "import sys; from ctckit.cli import main; sys.exit(main(sys.argv[1:]))"
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        for argv in CLI_RUNS:
            before = set(directory.iterdir())
            done = subprocess.run([sys.executable, "-c", entry, *argv], cwd=directory,
                                  env=env, capture_output=True, check=False)
            files = {}
            for path in sorted(set(directory.iterdir()) - before):
                data = path.read_bytes()
                if path.suffix == ".jsonl":
                    data = re.sub(rb'"wall_time": [^,}]+', b'"wall_time": null', data)
                files[path.name] = _sha(data)
            print(json.dumps({"argv": list(argv), "exit": done.returncode,
                              "stdout": _sha(done.stdout), "stderr": _sha(done.stderr),
                              "files": files}), flush=True)


def main(argv):
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    import ctckit
    from ctckit import census, discontinuity
    from ctckit.deutsch import SolverDiagnostic
    from ctckit.states import UnitaryGate

    diagnostics = []
    solve = discontinuity.fixed_point_set

    def recording_solve(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except SolverDiagnostic as exc:
            diagnostics.append(str(exc))
            raise

    witness_shas = []
    classify = census.classify

    def recording_classify(*args, **kwargs):
        cls = classify(*args, **kwargs)
        witness_shas.append(_witness_sha(cls))
        return cls

    discontinuity.fixed_point_set = recording_solve
    census.classify = recording_classify
    refs = {name: json.loads((root / "perfbench" / "reference" / f"{name}.json").read_text())
            for name in POOLS}
    for name, ref in refs.items():
        config = census.CensusConfig(**ref["semantics"])
        for perm, *_ in ref["records"]:
            diagnostics.clear()
            witness_shas.clear()
            rec = census._classify_one(tuple(perm), config)
            witness_sha, = witness_shas  # one classification per gate
            print(json.dumps({
                "pool": name, "permutation": perm, "verdict": rec.verdict,
                "sigma_jump": repr(rec.sigma_jump), "rho_hat_jump": repr(rec.rho_hat_jump),
                "witness_digest": rec.witness_digest, "witness_sha": witness_sha,
                "diagnostics": diagnostics,
            }), flush=True)
        print(json.dumps({"pool": name, "config_hash": config.config_hash(),
                          "reference_hash": ref["config_hash"]}), flush=True)
    for name, ref in refs.items():
        semantics = {**ref["semantics"], **REFINING}
        for i, (perm, *_) in enumerate(ref["records"][:REFINING_GATES]):
            gate = UnitaryGate.from_permutation(semantics["dim1"], semantics["dim2"], perm)
            families = discontinuity.generate_probe_families(gate, semantics["strategy"])
            for kind, source in (("refining_pool", {"strategy": semantics["strategy"]}),
                                 ("given_pool", {"families": families[::7]})):
                diagnostics.clear()
                cls = discontinuity.classify(
                    gate, epsilons=semantics["epsilons"], jump_tol=semantics["jump_tol"],
                    max_refinements=semantics["max_refinements"], **source)
                print(json.dumps({
                    kind: name, "permutation": perm, "verdict": cls.verdict,
                    "sigma_jump": repr(cls.sigma_jump), "rho_hat_jump": repr(cls.rho_hat_jump),
                    "witness_digest": cls.witness_digest(), "witness_sha": _witness_sha(cls),
                    "refinements_used": cls.witness["refinements_used"],
                    "diagnostics": diagnostics,
                }), flush=True)
            diagnostics.clear()
            family = families[i % len(families)]
            result = discontinuity.probe(gate, family, semantics["epsilons"])
            print(json.dumps({"probe_pool": name, "permutation": perm, "label": family.label,
                              "probe_sha": _probe_sha(result), "diagnostics": diagnostics}),
                  flush=True)
    discontinuity.fixed_point_set = solve
    census.classify = classify
    for name, ref in refs.items():
        selection_lines(name, ref)
    print(json.dumps({"wandering_family": wandering_family(ctckit)}), flush=True)
    run_cli(root)


if __name__ == "__main__":
    main(sys.argv[1:])
