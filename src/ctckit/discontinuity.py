"""Detecting discontinuities of the induced evolution.

The induced map ``rho -> rho_hat`` is nonlinear: because it routes through a
self-consistent ancilla state, it can jump at inputs where the fixed-point
set is degenerate.  A :class:`ProbePath` witnesses this by approaching a
center state along two families and comparing the limits: if both directions
pin unique fixed states on the fine end of the grid, both limits lie in the
(multi-valued) fixed-point set at the center, and they differ by more than
``jump_tol`` in trace distance, the ancilla state jumps.  If the emitted
system state jumps as well, the discontinuity is observable downstream.

Verdicts, ordered by strength:

* ``continuous_witnessed_none`` - no path produced a qualifying witness;
* ``ephemeral`` - the self-consistent ancilla state jumps but the emitted
  state does not;
* ``physical`` - the emitted state jumps too.

The verdict is monotone in the path set: adding paths can only upgrade it.

Every probe point, center or direction, goes through ``_solve``, the one
place where solving, selection and emission are chained; ``_probe`` builds
every :class:`ProbeResult`, for :func:`probe`, :func:`classify` and the
``probe`` command alike.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .deutsch import SolverDiagnostic, evolve_out, fixed_point_set, membership
from .reference import mixed_first_qubit, mixed_second_qubit, reference_center
from .selection import select
from .states import DensityOperator, trace_distance

__all__ = [
    "DEFAULT_EPSILONS",
    "JUMP_TOL",
    "LIMIT_MEMBERSHIP_TOL",
    "VERDICTS",
    "STRATEGIES",
    "RANDOM_PATHS",
    "ROW_COLUMNS",
    "ProbePath",
    "PathFamily",
    "ProbeRecord",
    "ProbeResult",
    "GateClassification",
    "probe",
    "classify",
    "generate_probe_families",
    "witness_csv_rows",
]

DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.01, 0.001)
JUMP_TOL = 0.1
LIMIT_MEMBERSHIP_TOL = 0.05
VERDICTS = ("continuous_witnessed_none", "ephemeral", "physical")
STRATEGIES = ("paper_example", "vertex_pairs", "random_seeded")
RANDOM_PATHS = 4
ROW_COLUMNS = (
    "epsilon",
    "k_a",
    "k_b",
    "sigma_jump_running",
    "rho_hat_jump_running",
    "entropy_a",
    "entropy_b",
)


@dataclass
class ProbePath:
    """Two families of states approaching a common center.

    ``direction_a`` and ``direction_b`` are lists of ``(eps, state)`` pairs
    with strictly decreasing positive ``eps`` and trace distance to the
    center nonincreasing along the grid.
    """

    center: DensityOperator
    direction_a: list
    direction_b: list
    label: str = ""

    def __post_init__(self):
        for name, pairs in (("direction_a", self.direction_a), ("direction_b", self.direction_b)):
            if not pairs:
                raise ValueError(f"{name} must contain at least one (eps, state) pair")
            eps = [float(e) for e, _ in pairs]
            if any(e <= 0 for e in eps):
                raise ValueError(f"{name} has a non-positive eps")
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise ValueError(f"{name} eps grid must be strictly decreasing")
            dists = [trace_distance(s, self.center) for _, s in pairs]
            if any(b > a + 1e-12 for a, b in zip(dists, dists[1:])):
                raise ValueError(
                    f"{name} must approach the center monotonically in trace distance"
                )


@dataclass
class PathFamily:
    """Generative form of a probe path: callables ``eps -> state``.

    Unlike a materialized :class:`ProbePath` a family can be re-evaluated on
    a refined grid, which :func:`classify` uses near the jump threshold.
    """

    center: DensityOperator
    family_a: object
    family_b: object
    label: str = ""

    def materialize(self, epsilons):
        eps = sorted({float(e) for e in epsilons}, reverse=True)
        return ProbePath(
            center=self.center,
            direction_a=[(e, self.family_a(e)) for e in eps],
            direction_b=[(e, self.family_b(e)) for e in eps],
            label=self.label,
        )


@dataclass
class ProbeRecord:
    """Solve outcome at one grid point of one direction."""

    direction: str
    epsilon: float
    k: int = None
    sigma: DensityOperator = None
    entropy: float = None
    rho_hat: DensityOperator = None
    error: str = None


@dataclass
class ProbeResult:
    label: str
    center_fps: object
    center_selection: object
    center_rho_hat: DensityOperator
    records: list = field(default_factory=list)

    def pairs(self):
        """Per-eps ``(eps, record_a, record_b)`` rows, coarse to fine."""
        by_eps = {}
        for r in self.records:
            by_eps.setdefault(r.epsilon, {})[r.direction] = r
        rows = []
        for eps in sorted(by_eps, reverse=True):
            d = by_eps[eps]
            if "a" in d and "b" in d:
                rows.append((eps, d["a"], d["b"]))
        return rows


def probe(u, path, rule=None):
    """Solve the fixed-point problem along both directions of a path."""
    return _probe(u, *_as_family(path), rule, {})


def _as_family(path):
    """``(family, eps_a, eps_b)`` that replays a materialized path's states."""
    a, b = ({float(e): state for e, state in pairs}
            for pairs in (path.direction_a, path.direction_b))
    return PathFamily(path.center, a.__getitem__, b.__getitem__, path.label), list(a), list(b)


def _solve(u, state, rule):
    """``(fixed-point set, selection, emitted state)`` for one input state."""
    fps = fixed_point_set(u, state)
    sel = select(fps, rule)
    return fps, sel, evolve_out(u, state, sel.sigma)


def _probe(u, fam, eps_a, eps_b, rule, solved):
    """A :class:`ProbeResult` for a family on per-direction eps grids.

    ``solved`` maps the center state and ``(direction, eps)`` to their solves,
    so paths that share a center or a direction solve it once.  It holds its
    keys, so no key can be reused by another object.
    """
    if fam.center not in solved:
        solved[fam.center] = _solve(u, fam.center, rule)
    records = []
    for name, direction, grid in (("a", fam.family_a, eps_a), ("b", fam.family_b, eps_b)):
        for eps in grid:
            key = (direction, eps)
            if key not in solved:
                try:
                    fps, sel, rho_hat = _solve(u, direction(eps), rule)
                    solved[key] = (fps.k, sel.sigma, sel.entropy, rho_hat, None)
                except SolverDiagnostic as exc:
                    solved[key] = (None, None, None, None, str(exc))
            records.append(ProbeRecord(name, eps, *solved[key]))
    return ProbeResult(fam.label, *solved[fam.center], records)


def _haar_pure(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _mix_toward(center, other, eps):
    return DensityOperator((1.0 - eps) * center.matrix + eps * other.matrix)


def generate_probe_families(u, strategy, seed=0):
    """Probe-path families for a gate, by strategy.

    ``paper_example``
        The bundled reference pair on dims ``(4, 2)``: mix the second input
        qubit against mixing the first.
    ``vertex_pairs``
        Paths centered at the computational basis vertices ``|v><v|`` of the
        first factor.  Each vertex contributes two approach directions per
        other vertex ``w`` - the diagonal mixture ``(1-eps)|v><v| +
        eps|w><w|`` and the pure superposition ``sqrt(1-eps)|v> +
        sqrt(eps)|w>`` - and one path per unordered pair of directions.
        Directions are shared between the paths of a vertex, so
        :func:`classify` solves each only once.
    ``random_seeded``
        :data:`RANDOM_PATHS` seeded paths with Haar-random pure centers,
        each mixed toward two independent random pure states.
    """
    if strategy == "paper_example":
        if (u.dim1, u.dim2) != (4, 2):
            raise ValueError("paper_example paths are defined for dims (4, 2) only")
        return [
            PathFamily(
                center=reference_center(),
                family_a=mixed_second_qubit,
                family_b=mixed_first_qubit,
                label="reference",
            )
        ]
    if strategy == "vertex_pairs":
        d1 = u.dim1

        def mix_family(center, w):
            other = DensityOperator.basis_state(d1, w)
            return lambda e: _mix_toward(center, other, e)

        def sup_family(v, w):
            def fam(e):
                amps = np.zeros(d1, dtype=complex)
                amps[v] = np.sqrt(1.0 - e)
                amps[w] = np.sqrt(e)
                return DensityOperator.pure(amps)

            return fam

        families = []
        for v in range(d1):
            center = DensityOperator.basis_state(d1, v)
            directions = []
            for w in range(d1):
                if w == v:
                    continue
                directions.append((f"mix{w}", mix_family(center, w)))
                directions.append((f"sup{w}", sup_family(v, w)))
            for i, (name_a, fam_a) in enumerate(directions):
                for name_b, fam_b in directions[i + 1:]:
                    families.append(
                        PathFamily(center, fam_a, fam_b, label=f"vertex{v}:{name_a}|{name_b}")
                    )
        return families
    if strategy == "random_seeded":
        rng = np.random.default_rng(seed)
        families = []
        for i in range(RANDOM_PATHS):
            center = DensityOperator.pure(_haar_pure(u.dim1, rng))
            other_a = DensityOperator.pure(_haar_pure(u.dim1, rng))
            other_b = DensityOperator.pure(_haar_pure(u.dim1, rng))
            fam_a = lambda e, c=center, o=other_a: _mix_toward(c, o, e)
            fam_b = lambda e, c=center, o=other_b: _mix_toward(c, o, e)
            families.append(PathFamily(center, fam_a, fam_b, label=f"random{i}"))
        return families
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


@dataclass
class GateClassification:
    verdict: str
    sigma_jump: float
    rho_hat_jump: float
    witness: dict

    def to_json(self):
        return {
            "verdict": self.verdict,
            "sigma_jump": self.sigma_jump,
            "rho_hat_jump": self.rho_hat_jump,
            "witness": self.witness,
        }

    def witness_digest(self):
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _analyze_path(result, jump_tol):
    """Per-path verdict from the qualifying tail of the probe grid.

    The qualifying tail is the longest run of consecutive fine grid points
    where both directions pinned a unique fixed state cleanly; at least two
    such points are required before trusting its finest entry as a limit.
    """
    rows, tail = [], []
    for eps, ra, rb in result.pairs():
        row = dict(zip(ROW_COLUMNS, (eps, ra.k, rb.k, None, None, ra.entropy, rb.entropy)))
        both_solved = ra.error is None and rb.error is None
        if both_solved:
            row["sigma_jump_running"] = trace_distance(ra.sigma, rb.sigma)
            row["rho_hat_jump_running"] = trace_distance(ra.rho_hat, rb.rho_hat)
        rows.append(row)
        if both_solved and ra.k == 0 and rb.k == 0:
            tail.append((row, ra, rb))
        else:
            tail = []

    notes = []
    verdict = "continuous_witnessed_none"
    sigma_jump = max((r["sigma_jump_running"] or 0.0 for r in rows), default=0.0)
    rho_hat_jump = 0.0
    limits_in_set = None
    near_threshold = False

    if len(tail) >= 2:
        row, ra, rb = tail[-1]
        sigma_jump = row["sigma_jump_running"]
        rho_hat_jump = row["rho_hat_jump_running"]
        member_a = membership(result.center_fps, ra.sigma, tol=LIMIT_MEMBERSHIP_TOL)
        member_b = membership(result.center_fps, rb.sigma, tol=LIMIT_MEMBERSHIP_TOL)
        limits_in_set = [member_a.ok, member_b.ok]
        near_threshold = (
            jump_tol / 2 < sigma_jump < 2 * jump_tol
            or jump_tol / 2 < rho_hat_jump < 2 * jump_tol
        )
        if sigma_jump > jump_tol and member_a.ok and member_b.ok:
            verdict = "ephemeral"
            if rho_hat_jump > jump_tol:
                verdict = "physical"
        elif sigma_jump > jump_tol:
            notes.append(
                "directional limits differ but do not both lie in the "
                "center fixed-point set; not counted as a witness"
            )
    else:
        notes.append("no qualifying tail: directions did not both pin unique fixed states")

    return {
        "label": result.label,
        "verdict": verdict,
        "sigma_jump": sigma_jump,
        "rho_hat_jump": rho_hat_jump,
        "center_k": result.center_fps.k,
        "tail_length": len(tail),
        "limits_in_set": limits_in_set,
        "near_threshold": near_threshold,
        "notes": notes,
        "rows": rows,
    }


def classify(
    u,
    strategy="vertex_pairs",
    paths=None,
    epsilons=DEFAULT_EPSILONS,
    jump_tol=JUMP_TOL,
    rule=None,
    seed=0,
    max_refinements=2,
):
    """Classify a gate by probing for discontinuities of the induced map.

    With a ``strategy`` the paths are generated as families and the grid is
    refined (next eps = finest / 10) up to ``max_refinements`` times on
    paths whose measured jump lands within a factor of two of ``jump_tol``.
    Explicit ``paths`` are used as given, without refinement.
    """
    base_eps = sorted({float(e) for e in epsilons}, reverse=True)
    if len(base_eps) < 2:
        raise ValueError("need at least two eps values to take a directional limit")

    analyses = []
    refinements_used = 0
    solved = {}
    if paths is None:
        for fam in generate_probe_families(u, strategy, seed=seed):
            eps = list(base_eps)
            result = _probe(u, fam, eps, eps, rule, solved)
            analysis = _analyze_path(result, jump_tol)
            while analysis["near_threshold"] and refinements_used < max_refinements:
                eps.append(min(eps) / 10.0)
                refinements_used += 1
                result = _probe(u, fam, eps, eps, rule, solved)
                analysis = _analyze_path(result, jump_tol)
            analyses.append(analysis)
        strategy_name = strategy
    else:
        for path in paths:
            result = _probe(u, *_as_family(path), rule, solved)
            analyses.append(_analyze_path(result, jump_tol))
        strategy_name = "user_paths"

    rank = {v: i for i, v in enumerate(VERDICTS)}
    best = max(analyses, key=lambda a: (rank[a["verdict"]], a["rho_hat_jump"], a["sigma_jump"]))
    witness = {
        "strategy": strategy_name,
        "jump_tol": jump_tol,
        "limit_membership_tol": LIMIT_MEMBERSHIP_TOL,
        "epsilons": base_eps,
        "refinements_used": refinements_used,
        "best_path": best["label"],
        "paths": analyses,
    }
    return GateClassification(
        verdict=best["verdict"],
        sigma_jump=best["sigma_jump"],
        rho_hat_jump=best["rho_hat_jump"],
        witness=witness,
    )


def witness_csv_rows(classification):
    """Rows of the witness CSV for the path behind the verdict."""
    best_label = classification.witness["best_path"]
    paths = classification.witness["paths"]
    best = next((p for p in paths if p["label"] == best_label), paths[0])
    out = [list(ROW_COLUMNS)]
    for row in best["rows"]:
        out.append([row[h] if row[h] is not None else "" for h in ROW_COLUMNS])
    return out
