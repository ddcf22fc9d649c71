"""The four benchmark workloads and their correctness gates.

Each workload draws a *sample* of operations from ``--seed`` (gates of a
census, Bloch slices, ``ctc_channel`` calls) and runs the whole sample once
per *round*; a round is timed as a whole, and so is each operation, as a
``perf_counter()`` interval.  The program's outputs are checked after each
round, outside the timed region.  Every call into
ctckit goes through a module attribute looked up at call time, so the trace
wrappers installed by :mod:`tracer` see it.

Census inputs come from a pool whose outputs were recorded at the commit
that defined the benchmark (``reference/*.json``, written by
``make_reference.py``): the seed picks which pool gates a round classifies.
The rest of the pool is pre-filled into the record file from the reference,
and ``run_census(..., resume=True)`` classifies only the picked gates, so
every record it writes can be checked against the reference.
"""

import csv
import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ctckit
import ctckit.census
import ctckit.cli
import ctckit.deutsch
import ctckit.discontinuity
import ctckit.selection
import ctckit.states

from tracer import count_diagnostics

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Jumps are compared to the reference within this absolute tolerance: it
# absorbs last-bit differences between BLAS kernels, while a changed verdict
# or a moved jump is caught.
JUMP_TOL = 1e-9
CHANNEL_TOL = 1e-9
FIXED_POINT_TOL = 1e-9


@dataclass
class RoundResult:
    # perf_counter() interval of the timed region, and of each operation.
    start: float
    end: float
    op_spans: list
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    output: object = None
    info: dict = field(default_factory=dict)


# One gate of a census reference pool, with the work it did at the commit
# that recorded it.
PoolGate = namedtuple(
    "PoolGate", "perm verdict sigma_jump rho_hat_jump diagnostics selection_iterations")
# A gate whose selection rule iterated this often does about twice the work
# of one that did not; samples hold a fixed number of each.
HEAVY_SELECTION = 100


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _pick(rng, indices, size):
    return [int(i) for i in rng.choice(list(indices), size=size, replace=False)]


# ---------------------------------------------------------------------------
# census


class CensusWorkload:
    """``run_census`` over seeded gates of a reference pool, serial.

    ``composition`` maps a stratum, ``(diagnostics, heavy selection)`` of a
    pool gate, to the number of gates the sample takes from it, so every
    seed's sample carries the same number of failing solves and of
    optimiser-heavy gates (stratified sampling).
    """

    op_boundary = "discontinuity.classify"

    def __init__(self, name, composition, work_dir, seed):
        self.name = name
        self.composition = composition
        self.work_dir = Path(work_dir)
        self.seed = seed

    def setup(self):
        ref = load_reference(self.name)
        self.records = [PoolGate(tuple(r[0]), *r[1:]) for r in ref["records"]]
        self.config = ctckit.census.CensusConfig(
            **ref["semantics"], out_path=str(self.work_dir / f"{self.name}.jsonl"))
        if self.config.config_hash() != ref["config_hash"]:
            raise RuntimeError(f"{self.name}: census semantics no longer hash to the reference")
        self.counts = ref["summary_counts"]
        strata = {}
        for i, rec in enumerate(self.records):
            key = (rec.diagnostics, rec.selection_iterations >= HEAVY_SELECTION)
            strata.setdefault(key, []).append(i)
        rng = np.random.default_rng(self.seed)
        self.sample = []
        for key, size in sorted(self.composition.items()):
            if len(strata.get(key, ())) < size:
                raise RuntimeError(f"{self.name}: pool has too few gates in stratum {key}")
            self.sample += _pick(rng, strata[key], size)
        self.sample.sort()
        self.header = json.dumps({
            "kind": "ctckit-census", "version": 1,
            "config_hash": self.config.config_hash(), "config": self.config.to_json(),
        }, sort_keys=True) + "\n"

    def warm_up(self):
        clean = next(r for r in self.records if r.diagnostics == 0)
        s = self.config
        gate = ctckit.states.UnitaryGate.from_permutation(s.dim1, s.dim2, clean.perm)
        ctckit.discontinuity.classify(
            gate, strategy=s.strategy, epsilons=s.epsilons, jump_tol=s.jump_tol,
            seed=s.seed, max_refinements=s.max_refinements)

    def _prefill(self, picked):
        lines = [self.header]
        for i, (perm, verdict, sj, rj, _, _) in enumerate(self.records):
            if i not in picked:
                lines.append(json.dumps({
                    "permutation": list(perm), "verdict": verdict, "sigma_jump": sj,
                    "rho_hat_jump": rj, "wall_time": 0.0, "witness_digest": "",
                }, sort_keys=True) + "\n")
        path = Path(self.config.out_path)
        path.write_text("".join(lines), encoding="utf-8")
        return path, len(lines), path.stat().st_size

    def run_round(self):
        """One census of the sample; each gate is timed around ``classify``."""
        gates = self.sample
        picked = set(gates)
        path, n_prefill, prefill_bytes = self._prefill(picked)
        counter, spans = [0], []
        classify = ctckit.census.classify

        def timed_classify(*args, **kwargs):
            t = time.perf_counter()
            try:
                return classify(*args, **kwargs)
            finally:
                spans.append((t, time.perf_counter()))

        ctckit.census.classify = timed_classify
        try:
            with count_diagnostics(counter):
                t0 = time.perf_counter()
                try:
                    summary = ctckit.census.run_census(self.config, resume=True)
                    error = None
                except Exception as exc:  # a failing round is reported, not fatal
                    error = exc
                t1 = time.perf_counter()
        finally:
            ctckit.census.classify = classify
        result = RoundResult(t0, t1, spans, len(gates))
        if error is not None:
            result.failed = len(gates)
            result.problems.append(f"run_census raised {type(error).__name__}: {error}")
            return result

        lines = path.read_text(encoding="utf-8").splitlines()[n_prefill:]
        result.info["bytes_written"] = path.stat().st_size - prefill_bytes
        result.info["expected_solves"] = len(gates) * _solves_per_gate(self.config)
        written = [json.loads(line) for line in lines]
        if len(written) != len(gates):
            result.problems.append(f"{len(written)} records written for {len(gates)} gates")
        output = []
        for i, rec in zip(gates, written):
            perm, verdict, sj, rj = self.records[i][:4]
            ok = (tuple(rec["permutation"]) == perm and rec["verdict"] == verdict
                  and abs(rec["sigma_jump"] - sj) <= JUMP_TOL
                  and abs(rec["rho_hat_jump"] - rj) <= JUMP_TOL)
            if not ok:
                result.failed += 1
                result.problems.append(
                    f"gate {list(perm)}: got {rec['verdict']} {rec['sigma_jump']!r} "
                    f"{rec['rho_hat_jump']!r}, reference {verdict} {sj!r} {rj!r}")
            output.append((tuple(rec["permutation"]), rec["verdict"], rec["sigma_jump"],
                           rec["rho_hat_jump"], rec["witness_digest"]))
        result.failed += max(0, len(gates) - len(written))
        expected_diags = sum(self.records[i].diagnostics for i in gates)
        if counter[0] != expected_diags:
            result.problems.append(
                f"{counter[0]} SolverDiagnostic raised, reference {expected_diags}")
        if summary.total != len(self.records) or summary.counts != self.counts:
            result.problems.append(f"summary {summary.to_json()} does not match the pool")
        result.info["diagnostics"] = counter[0]
        result.output = output
        return result


def _solves_per_gate(config):
    """Distinct solves of one ``vertex_pairs`` gate before refinement.

    Each basis vertex is one center solve plus a mixing and a superposition
    direction toward every other vertex, solved once per grid point.  Each
    refinement adds one grid point to the two directions of one path.
    """
    d1 = config.dim1
    return d1 * (1 + 2 * (d1 - 1) * len(config.epsilons))


# ---------------------------------------------------------------------------
# bloch slice


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def _bloch_map(perm, rho):
    """Induced map on the loop qubit in Bloch coordinates, in plain numpy.

    ``T(sigma) = Tr_1(U (rho (x) sigma) U^dagger)`` with ``U`` the
    permutation matrix ``U[perm[j], j] = 1``; returns ``(A, b)`` with
    ``r' = A r + b`` for Bloch vectors ``r`` of ``sigma``.
    """
    d1 = rho.shape[0]
    d = 2 * d1
    u = np.zeros((d, d))
    u[list(perm), range(d)] = 1.0

    def t(x):
        w = u @ np.kron(rho, x) @ u.T
        out = np.einsum("aiaj->ij", w.reshape(d1, 2, d1, 2))
        return np.array([np.trace(out @ p).real for p in PAULIS])

    b = t(np.eye(2) / 2)
    a = np.stack([t(p / 2) for p in PAULIS], axis=1)
    return a, b


def check_bloch_csv(rows, perm, rho, paper_example):
    """Problems found in a bloch-slice CSV, checked independently of ctckit.

    A cell must be a member exactly when it lies in the disc and one pass of
    the map moves it by at most the package's residual tolerance in trace
    distance; entropies must match the closed form for a qubit.
    """
    problems = []
    if rows[0] != ["x", "z", "member", "entropy"]:
        return [f"unexpected header {rows[0]}"]
    body = rows[1:]
    x = np.array([float(r[0]) for r in body])
    z = np.array([float(r[1]) for r in body])
    member = np.array([r[2] == "True" for r in body])
    inside = x * x + z * z <= 1.0 + 1e-12
    a, b = _bloch_map(perm, rho)
    r = np.stack([x, np.zeros_like(x), z], axis=1)
    moved = 0.5 * np.linalg.norm(r @ a.T + b - r, axis=1)
    expected = inside & (moved <= ctckit.deutsch.RESIDUAL_TOL)
    wrong = np.flatnonzero(member != expected)
    if wrong.size:
        problems.append(f"{wrong.size} cells disagree with the residual check, "
                        f"first at x={x[wrong[0]]} z={z[wrong[0]]}")
    if paper_example:
        axis = inside & (x == 0.0)
        if not np.array_equal(member, axis) or axis.sum() != math.isqrt(len(body)):
            problems.append("paper example does not mark exactly the z-axis column")
    norm = np.minimum(np.hypot(x, z), 1.0)
    p = np.stack([(1 + norm) / 2, (1 - norm) / 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -np.sum(np.where(p > 0, p * np.log(p), 0.0), axis=0)
    got = np.array([float(r[3]) if r[3] != "" else np.nan for r in body])
    bad = inside & ~(np.abs(got - s) <= 1e-9)
    if bad.any() or np.any(~np.isnan(got[~inside])):
        problems.append("entropy column disagrees with the closed form")
    return problems


class BlochSliceWorkload:
    """``cli.main(["bloch-slice", ...])`` in-process at the default resolution.

    The sample is the paper example and ``scenarios`` seeded (4, 2)
    permutation gates at a basis vertex whose fixed-point set is a segment
    (k = 1).
    """

    name = "bloch_slice"
    op_boundary = "cli.main"
    resolution = 201
    scenarios = 1

    def __init__(self, work_dir, seed):
        self.work_dir = Path(work_dir)
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.sample = [None]
        deutsch, states = ctckit.deutsch, ctckit.states
        while len(self.sample) < 1 + self.scenarios:
            perm = [int(i) for i in rng.permutation(8)]
            vertex = int(rng.integers(4))
            gate = states.UnitaryGate.from_permutation(4, 2, perm)
            rho = states.DensityOperator.basis_state(4, vertex)
            if deutsch.fixed_point_set(gate, rho).k != 1:
                continue
            path = self.work_dir / f"bloch_scenario_{len(self.sample)}.json"
            path.write_text(json.dumps({"gate": gate.to_json(), "rho": rho.to_json()}),
                            encoding="utf-8")
            self.sample.append((str(path), perm, rho.matrix.real.copy()))

    def warm_up(self):
        out = self.work_dir / "bloch_warm_up.csv"
        ctckit.cli.main(["bloch-slice", "--paper-example", "--resolution", "5", "--out", str(out)])

    def _args(self, j, scenario):
        out = self.work_dir / f"bloch_slice_{j}.csv"
        if scenario is None:
            args = ["bloch-slice", "--paper-example"]
        else:
            args = ["bloch-slice", "--scenario", scenario[0]]
        return args + ["--resolution", str(self.resolution), "--out", str(out)], out

    def _check(self, scenario, code, out):
        """``(problems, csv_text)`` of one slice, checked independently."""
        if code != 0:
            return [f"bloch-slice exited with {code}"], None
        if scenario is None:
            perm = ctckit.REFERENCE_PERMUTATION
            rho = ctckit.reference_center().matrix.real.copy()
        else:
            _, perm, rho = scenario
        text = out.read_text(encoding="utf-8")
        rows = list(csv.reader(text.splitlines()))
        return check_bloch_csv(rows, perm, rho, paper_example=scenario is None), text

    def run_round(self):
        """Every slice of the sample, each to its own CSV; checked afterwards."""
        runs = [self._args(j, scenario) for j, scenario in enumerate(self.sample)]
        codes, spans = [], []
        for args, _ in runs:
            t0 = time.perf_counter()
            try:
                code = ctckit.cli.main(args)
            except Exception as exc:  # a failing slice is reported, not fatal
                code = f"{type(exc).__name__}: {exc}"
            spans.append((t0, time.perf_counter()))
            codes.append(code)
        result = RoundResult(spans[0][0], spans[-1][1], spans, len(runs))
        result.output = []
        for scenario, code, (_, out) in zip(self.sample, codes, runs):
            problems, text = self._check(scenario, code, out)
            result.failed += bool(problems)
            result.problems.extend(problems)
            result.output.append(text)
        return result


# ---------------------------------------------------------------------------
# dense channel

CHANNEL_DIMS = ((2, 2), (4, 2), (2, 3), (3, 3))


def channel_inputs(pool_seed, per_dims):
    """Haar-random unitaries and full-rank random states, per dims."""
    cases = []
    for d1, d2 in CHANNEL_DIMS:
        rng = np.random.default_rng([pool_seed, d1, d2])
        for _ in range(per_dims):
            d = d1 * d2
            z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            g = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
            m = g @ g.conj().T
            m = 0.5 * (m + m.conj().T) / np.trace(m).real
            cases.append(((d1, d2), u, m))
    return cases


def _outputs(u, rho, sigma, d1, d2):
    w = u @ np.kron(rho, sigma) @ u.conj().T
    w = w.reshape(d1, d2, d1, d2)
    return np.einsum("aiaj->ij", w), np.einsum("iaja->ij", w)


class ChannelDenseWorkload:
    """``ctc_channel`` on Haar-random dense gates with random mixed inputs."""

    name = "channel_dense"
    op_boundary = "selection.ctc_channel"
    # Calls per entry of CHANNEL_DIMS.  A call with a qubit loop takes about
    # 0.5 ms and one with a qutrit loop about 1.1 ms, with nothing between;
    # with as many of each the median would fall in that gap, at the mean of
    # the slowest qubit call and the fastest qutrit call.  Taking 60 of 100
    # calls with a qubit loop puts op_ms_p50 inside their cluster and the
    # p90 tail inside the qutrit cluster.
    per_dims = (30, 30, 20, 20)

    def __init__(self, work_dir, seed):
        self.seed = seed

    def setup(self):
        ref = load_reference(self.name)
        raw = channel_inputs(ref["pool_seed"], ref["per_dims"])
        states = ctckit.states
        self.cases = [(dims, states.UnitaryGate(u, *dims), states.DensityOperator(m), u, m)
                      for dims, u, m in raw]
        self.expected = [np.asarray(re) + 1j * np.asarray(im) for re, im in ref["rho_hat"]]
        if len(self.expected) != len(self.cases):
            raise RuntimeError("channel reference does not match the input pool")
        rng = np.random.default_rng(self.seed)
        pool = ref["per_dims"]
        picked = sum((_pick(rng, range(j * pool, (j + 1) * pool), size)
                      for j, size in enumerate(self.per_dims)), [])
        self.sample = [int(i) for i in rng.permutation(picked)]

    def warm_up(self):
        per = len(self.cases) // len(CHANNEL_DIMS)
        for j in range(len(CHANNEL_DIMS)):
            _, gate, rho, _, _ = self.cases[j * per]
            ctckit.selection.ctc_channel(gate, rho)

    def run_round(self):
        calls = self.sample
        clock = time.perf_counter
        results, spans = [], []
        t0 = clock()
        for i in calls:
            _, gate, rho, _, _ = self.cases[i]
            t = clock()
            try:
                results.append(ctckit.selection.ctc_channel(gate, rho))
            except Exception as exc:  # counted as a failed operation
                results.append(exc)
            spans.append((t, clock()))
        result = RoundResult(t0, clock(), spans, len(calls))
        output = []
        for i, res in zip(calls, results):
            (d1, d2), _, _, u, m = self.cases[i]
            problem = None
            if isinstance(res, Exception):
                problem = f"ctc_channel raised {type(res).__name__}: {res}"
            else:
                rho_hat, sel = res
                sigma = sel.sigma.matrix
                loop, out = _outputs(u, m, sigma, d1, d2)
                if not sel.converged:
                    problem = "selection did not converge"
                elif np.max(np.abs(loop - sigma)) > FIXED_POINT_TOL:
                    problem = "sigma is not a fixed point of the induced map"
                elif np.max(np.abs(out - rho_hat.matrix)) > FIXED_POINT_TOL:
                    problem = "rho_hat is not the emitted state for sigma"
                elif np.max(np.abs(rho_hat.matrix.ravel() - self.expected[i])) > CHANNEL_TOL:
                    problem = "rho_hat differs from the reference"
                output.append(rho_hat.matrix.tobytes())
            if problem:
                result.failed += 1
                result.problems.append(f"case {i} dims ({d1}, {d2}): {problem}")
        result.output = output
        return result


# ---------------------------------------------------------------------------

WORKLOADS = ("census_4x2", "census_3x3", "bloch_slice", "channel_dense")
# Census samples are small so that a run makes many short rounds (see
# README.md).  Strata are (diagnostics, heavy selection).  The (4, 2) pool
# holds 487 light and 13 heavy gates, all without diagnostics; eight light
# gates take about 0.9 s.  The (3, 3) pool holds 194 light and 25 heavy gates
# without diagnostics, 13 with one and 8 with four.  A gate with one failing
# solve costs about 0.8 s against 0.1 to 0.15 s for a clean gate.  The
# sample keeps about the pool's share of heavy gates and takes two gates
# with a failing solve, so that failing solves take about the pool's share
# of the time (60 %).  Ten gates keep op_ms_tail at the slowest of them.
# A round takes about 2.3 s at the reference speed.
CENSUS_4X2_COMPOSITION = {(0, False): 8}
CENSUS_3X3_COMPOSITION = {(0, False): 7, (0, True): 1, (1, False): 2}


def make_workload(name, work_dir, seed):
    if name == "census_4x2":
        return CensusWorkload(name, CENSUS_4X2_COMPOSITION, work_dir, seed)
    if name == "census_3x3":
        return CensusWorkload(name, CENSUS_3X3_COMPOSITION, work_dir, seed)
    if name == "bloch_slice":
        return BlochSliceWorkload(work_dir, seed)
    if name == "channel_dense":
        return ChannelDenseWorkload(work_dir, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
