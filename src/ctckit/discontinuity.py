"""Detecting discontinuities of the induced evolution.

The induced map ``rho -> rho_hat`` is nonlinear: because it routes through a
self-consistent ancilla state, it can jump at inputs where the fixed-point
set is degenerate.  A :class:`PathFamily` witnesses this by approaching a
center state along two directions on one grid of ``eps`` and comparing the
limits: if both directions pin unique fixed states on the fine end of the
grid, both limits lie in the (multi-valued) fixed-point set at the center,
and they differ by more than ``jump_tol`` in trace distance, the ancilla
state jumps.  If the emitted system state jumps as well, the discontinuity
is observable downstream.

Verdicts, ordered by strength:

* ``continuous_witnessed_none`` - no path produced a qualifying witness;
* ``ephemeral`` - the self-consistent ancilla state jumps but the emitted
  state does not;
* ``physical`` - the emitted state jumps too.

The verdict is monotone in the path set: adding paths can only upgrade it.

``_solve`` solves the points of a probe call, for :func:`probe`,
:func:`classify` and the ``probe`` command alike, into a table
(``_Solved``), the only record of a solved point: each center's
fixed-point set, and each direction point's row under a point number, its
``k`` and entropy as float columns and its sigma and emitted state in two
stacks, or its diagnostic if its solve failed.  One walk over the families
(``_walk``) numbers the new points and gives each path's rows as point
numbers; the solve cores of all new points are built as one stack, and
each point's solve is finished by its own ``fixed_point_set`` call, in the
order the points were met, so a center's diagnostic stops it before any
later point is solved.  One stage, ``_select_and_emit``, selects and emits
as one stack, for the new direction points of a ``_solve`` call and the
distinct centers of the ``probe`` command.  Only :func:`probe` and the
``probe`` command build :class:`ProbeResult` records from the table
(``_probe``).  A verdict reads a center's fixed-point set, never a state
selected from it.
:func:`classify` fills the witness rows of its paths as one float table
over :data:`ROW_COLUMNS`, column by column from the solved-point table: the
running jumps of all rows come from one batched trace distance of the
indexed stacks each, and the tails, limits and verdicts from the table's
columns; the new limits of each center are tested against its set as one
stack of the table's sigmas.  A :class:`GateClassification` keeps that
table beside the rest of the witness, and builds row dicts only when the
witness is read.

:meth:`GateClassification.witness_digest` hashes the witness with every
float rounded to 9 decimals by one rule: the JSON of the classification
with each path's rows replaced by its row count, then the row table as one
float64 array, so a census builds no row dict.  Values that differ by
rounding noise hash alike, unless a value lies within the noise of a
rounding tie: ``tools/digest_noise.py`` moves every float of the 500 pinned
witnesses by a relative 1e-14 without changing a digest, while 1e-13
changes 7.8 % of them and 1e-12 35.6 %.

Each :func:`generate_probe_families` call builds new families with new
states.  A generated :func:`classify` reads its families from the probe
plan, the one process-wide memo of probe states (:func:`_plan`, bounded and
keyed by value, ``(strategy, d1, grid)``): the generated families and their
walk on the grid against a fresh table, made once, with the read-only stack
of the new points' states and what path analysis reads of the point numbers
alone.  It seeds its fresh table with the plan's numbers and solves the
plan's points, so a census builds, walks and stacks its probe points once
per config, not once per gate; refinements, given families and
:func:`probe` walk, by the same function, and build their states anew on
each call.  ``_plan.cache_clear()`` frees the plans with the states they
hold.  A given direction is called once per ``eps`` of a call, by the walk,
whose states the check that it approaches its center reads.

No strategy draws random states, so generation takes no seed.  A jump needs
a center whose fixed-point set is degenerate, and a random pure center
almost never has one; non-vertex directions belong in a strategy that aims
at degenerate centers.
"""

import hashlib
import json
import numbers
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .deutsch import SolverDiagnostic, _cores, _emit, _in_set, _superoperators, fixed_point_set
from .reference import mixed_first_qubit, mixed_second_qubit, reference_center
from .selection import _settle, select
from .states import DensityOperator, _check_count, _spectrum_entropy, _validated, trace_distance

__all__ = [
    "DEFAULT_EPSILONS",
    "JUMP_TOL",
    "LIMIT_MEMBERSHIP_TOL",
    "VERDICTS",
    "STRATEGIES",
    "ROW_COLUMNS",
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
STRATEGIES = ("paper_example", "vertex_pairs")
_PLANS = 8  # (strategy, d1, grid) keys whose probe plans are kept
_DIGEST_DECIMALS = 9  # every float a witness digest hashes is rounded to these
ROW_COLUMNS = (
    "epsilon",
    "k_a",
    "k_b",
    "sigma_jump_running",
    "rho_hat_jump_running",
    "entropy_a",
    "entropy_b",
)
_row_values = itemgetter(*ROW_COLUMNS)  # a witness row's values in column order
# The digest's JSON; the witness holds no cycle, so the encoder need not look for one.
_HEAD_JSON = json.JSONEncoder(sort_keys=True, check_circular=False).encode


@dataclass
class PathFamily:
    """Two families of states ``eps -> state`` approaching a common center.

    A family is probed on a grid of ``eps``, the same for both directions,
    and can be re-evaluated on a refined grid, which :func:`classify` uses
    near the jump threshold.
    """

    center: DensityOperator
    family_a: object
    family_b: object
    label: str = ""


@dataclass
class ProbeRecord:
    """Solve outcome at one grid point of one direction."""

    direction: str
    epsilon: float
    k: int
    sigma: DensityOperator
    entropy: float
    rho_hat: DensityOperator
    error: str


@dataclass
class ProbeResult:
    """A family's center fixed-point set and its records: direction a on the grid, then b."""

    label: str
    center_fps: object
    records: list

    def pairs(self):
        """Per-eps ``(eps, record_a, record_b)`` rows, coarse to fine."""
        half = len(self.records) // 2
        return [(ra.epsilon, ra, rb) for ra, rb in zip(self.records[:half], self.records[half:])]


def probe(u, family, epsilons, rule=None):
    """Solve the fixed-point problem along both directions of a family."""
    return _probe(u, [family], _epsilon_grid(epsilons), rule)[0]


def _epsilon_grid(epsilons):
    """Distinct ``epsilons`` coarse to fine; a probe grid needs two in (0, 1]."""
    eps = sorted({float(e) for e in epsilons}, reverse=True)
    if len(eps) < 2 or not all(0.0 < e <= 1.0 for e in eps):
        raise ValueError(f"epsilons must hold at least two distinct values in (0, 1], got {eps}")
    return eps


def _check_refinement(jump_tol, max_refinements):
    """Raise unless ``jump_tol`` is a finite positive real (a bool is not one)
    and ``max_refinements`` a count."""
    if (isinstance(jump_tol, bool) or not isinstance(jump_tol, numbers.Real)
            or not 0.0 < jump_tol < float("inf")):
        raise ValueError(f"jump_tol must be a finite positive number, got {jump_tol!r}")
    _check_count("max_refinements", max_refinements)


def _check_user_families(families):
    """Raise unless given ``families`` exist and have distinct labels."""
    if not families:
        raise ValueError("families must hold at least one path family")
    labels = [fam.label for fam in families]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"family labels must be distinct; {label!r} repeats")


def _check_approach(families, grid, todo):
    """Raise unless both directions of each of ``families`` approach its
    center monotonically in trace distance on ``grid``, as one stack.  The
    states are read from ``todo``, the walk of the families on ``grid``
    against a fresh table (:func:`_walk`), so no direction is called again."""
    states = np.stack([todo[direction, e].matrix for fam in families
                       for direction in (fam.family_a, fam.family_b) for e in grid])
    centers = np.repeat(np.stack([fam.center.matrix for fam in families]), 2 * len(grid), axis=0)
    dists = trace_distance(states, centers).reshape(-1, len(grid))
    away = (dists[:, 1:] > dists[:, :-1] + 1e-12).any(axis=1)  # per family and side
    if away.any():
        name = ("direction_a", "direction_b")[int(away.argmax()) % 2]
        raise ValueError(f"{name} must approach the center monotonically in trace distance")


def _select_and_emit(u, rhos, sets, rule):
    """``(entropies, sigmas, rho_hats)`` of the points whose states are the
    stack ``rhos`` ``(N, d1, d1)`` and whose fixed-point sets are ``sets``:
    the list of the selected states' entropies, the stack of the selected
    states ``(N, d2, d2)``, and the validated stack of the states emitted
    with them ``(N, d1, d1)``, emitted as one stack.

    A unique fixed state (k = 0) is the state every rule selects, so its
    sigma is the set's particular state, and the entropies of all such
    points come from the spectra the solver kept, as one stack.  The
    degenerate sets go to ``selection._settle`` as one list with the rule,
    and those it settles are selected there; only the others go through
    their own ``select`` call.
    """
    unique = [fps.particular.eigenvalues for fps in sets if fps.k == 0]
    entropies = iter(_spectrum_entropy(np.stack(unique)).tolist() if unique else ())
    degenerate = [fps for fps in sets if fps.k]
    settled = iter(_settle(degenerate, rule))
    picks = []
    for fps in sets:
        pick = (fps.particular, next(entropies)) if fps.k == 0 else next(settled)
        if pick is None:
            sel = select(fps, rule)
            pick = sel.sigma, sel.entropy
        picks.append(pick)
    sigmas = np.stack([sigma.matrix for sigma, _ in picks])
    return [entropy for _, entropy in picks], sigmas, _validated(_emit(u, rhos, sigmas), 3)[0]


class _Solved:
    """The points the probe calls of one :func:`classify`, :func:`probe` or
    ``probe`` command have solved, each once, as the arrays that path
    analysis reads.

    ``centers`` maps a center state to its fixed-point set.  ``number``
    maps a direction point's ``(direction, eps)`` key to its point number,
    its row in the arrays: ``columns`` holds its ``k`` and entropy as
    floats, NaN where its solve failed, and the stacks ``sigmas`` and
    ``rho_hats`` its selected and emitted states, zero where it failed.
    ``errors`` maps the number of each point whose solve failed to its
    diagnostic.  The table holds its keys, so no key can be reused by
    another object.  :func:`classify` seeds a fresh table of generated
    families with the numbers of their probe plan (:func:`_plan`).
    """

    def __init__(self, u):
        self.u = u
        self.centers, self.number, self.errors = {}, {}, {}
        self.columns = np.empty((0, 2))
        self.sigmas = np.empty((0, u.dim2, u.dim2), dtype=complex)
        self.rho_hats = np.empty((0, u.dim1, u.dim1), dtype=complex)


class _Layout:
    """What one walk over the families of a probe call on a grid finds
    (:func:`_walk`), and what :func:`_analyze` reads of it.

    ``todo`` maps the key of each point the table lacked to its state, in
    walk order (a center is its own key), and ``stack`` holds their
    matrices ``(N, d1, d1)``, or is None if there are none.  ``number`` is
    the map from a direction point's key to its point number that the walk
    extended.  ``at`` holds the point numbers of each family's rows
    ``(families, 2, eps)``: direction a's, then b's.  ``epsilon`` is the eps
    of each row, ``at_a`` and ``at_b`` each row's point numbers on one side,
    and ``limit_at`` those of each family's last row.
    """

    def __init__(self, todo, number, at, grid):
        self.todo, self.number, self.at = todo, number, at
        self.stack = np.stack([state.matrix for state in todo.values()]) if todo else None
        self.epsilon = np.tile(grid, len(at))
        self.at_a, self.at_b = at[:, 0].ravel(), at[:, 1].ravel()
        self.limit_at = at[:, :, -1].tolist()


def _walk(families, grid, number, centers):
    """The :class:`_Layout` of ``families`` on ``grid`` against a table whose
    direction points ``number`` holds and whose centers ``centers`` holds:
    each new direction point is numbered into ``number``, in walk order."""
    todo, at = {}, []
    for fam in families:
        if fam.center not in centers:
            todo.setdefault(fam.center, fam.center)
        for direction in (fam.family_a, fam.family_b):
            for eps in grid:
                key = direction, eps
                i = number.get(key)
                if i is None:
                    i = number[key] = len(number)
                    todo[key] = direction(eps)
                at.append(i)
    return _Layout(todo, number, np.array(at).reshape(len(families), 2, len(grid)), grid)


def _solve(layout, rule, solved):
    """Solve into ``solved`` the new points of ``layout``, the
    :class:`_Layout` of a walk against ``solved`` (:func:`_walk`, or the
    probe plan of a fresh table that holds the plan's numbers).

    The solve cores of every new point, centers and direction points in
    walk order, are built as one stack from the layout's ``stack``; then
    each point's solve is finished by its own ``fixed_point_set(...,
    core=...)`` call, in the same order.  A center is solved but not
    selected: its fixed-point set is its outcome, and a
    :class:`SolverDiagnostic` there is raised.  A diagnostic at a direction
    point goes into ``errors``, and the solved ones go through
    :func:`_select_and_emit`.
    """
    u, first = solved.u, len(solved.columns)
    if not layout.todo:
        return
    cores = _cores(u, *_superoperators(u, layout.stack))
    fresh = []  # (new row, stack row, fps) of each direction point solved cleanly
    for row, ((key, state), core) in enumerate(zip(layout.todo.items(), cores)):
        if key is state:
            solved.centers[key] = fixed_point_set(u, state, core=core)
            continue
        try:
            fresh.append((layout.number[key] - first, row, fixed_point_set(u, state, core=core)))
        except SolverDiagnostic as exc:
            solved.errors[layout.number[key]] = str(exc)
    new = len(layout.number) - first
    columns = np.full((new, 2), np.nan)
    sigmas = np.zeros((new, u.dim2, u.dim2), dtype=complex)
    rho_hats = np.zeros((new, u.dim1, u.dim1), dtype=complex)
    if fresh:
        ok, rows, sets = map(list, zip(*fresh))
        entropies, sigmas[ok], rho_hats[ok] = _select_and_emit(u, layout.stack[rows], sets, rule)
        columns[ok] = list(zip([fps.k for fps in sets], entropies))
    solved.columns = np.concatenate([solved.columns, columns])
    solved.sigmas = np.concatenate([solved.sigmas, sigmas])
    solved.rho_hats = np.concatenate([solved.rho_hats, rho_hats])


def _probe(u, families, grid, rule):
    """One :class:`ProbeResult` per family, read from :func:`_solve` of the
    families on ``grid`` once :func:`_check_approach` has passed them;
    :func:`probe` and the ``probe`` command call it, and :func:`classify`
    reads the solved points itself.  The spectra of a record's two states
    come from one stacked ``eigvalsh`` of each of the table's stacks."""
    solved = _Solved(u)
    layout = _walk(families, grid, solved.number, solved.centers)
    _check_approach(families, grid, layout.todo)
    _solve(layout, rule, solved)
    k, entropy = solved.columns.T.tolist()
    states = []
    for stack in (solved.sigmas, solved.rho_hats):
        spectra = np.linalg.eigvalsh(stack)
        stack.setflags(write=False)
        spectra.setflags(write=False)
        states.append([DensityOperator._of(m, e) for m, e in zip(stack, spectra)])
    sigmas, rho_hats = states

    def record(direction, eps, i):
        if i in solved.errors:
            return ProbeRecord(direction, eps, None, None, None, None, solved.errors[i])
        return ProbeRecord(direction, eps, int(k[i]), sigmas[i], entropy[i], rho_hats[i], None)

    return [
        ProbeResult(fam.label, solved.centers[fam.center], [
            record(name, eps, i)
            for name, numbers in zip("ab", side) for eps, i in zip(grid, numbers.tolist())])
        for fam, side in zip(families, layout.at)
    ]


def _mix_toward(center, other, eps):
    return DensityOperator((1.0 - eps) * center.matrix + eps * other.matrix)


def _check_strategy(strategy, dim1, dim2):
    """Raise unless ``strategy`` builds at least one family on dims ``(dim1, dim2)``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "paper_example" and (dim1, dim2) != (4, 2):
        raise ValueError("paper_example paths are defined for dims (4, 2) only")
    if strategy == "vertex_pairs" and dim1 < 2:
        raise ValueError(f"vertex_pairs paths need dim1 >= 2, got {dim1}")


def generate_probe_families(u, strategy):
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

    Each call returns new families with new states.
    """
    _check_strategy(strategy, u.dim1, u.dim2)
    return _generated_paths(strategy, u.dim1)


@lru_cache(maxsize=_PLANS)
def _plan(strategy, d1, grid):
    """``(families, layout)``: the families that ``strategy`` generates on
    first-factor dimension ``d1``, and the :class:`_Layout` of their walk on
    the tuple ``grid`` against a fresh :class:`_Solved` (:func:`_walk`),
    with read-only arrays.

    This is the one process-wide memo of probe states: keyed by value and
    bounded, so every gate of a census config shares one plan, and
    :meth:`cache_clear` frees the states it holds."""
    families = tuple(_generated_paths(strategy, d1))
    layout = _walk(families, grid, {}, {})
    for array in (layout.stack, layout.at, layout.at_a, layout.at_b, layout.epsilon):
        array.setflags(write=False)
    return families, layout


def _generated_paths(strategy, d1):
    """New :class:`PathFamily` objects of the families that ``strategy``
    generates on first-factor dimension ``d1``; a direction builds a new
    state on each call."""
    if strategy == "paper_example":
        return [PathFamily(reference_center(), mixed_second_qubit, mixed_first_qubit,
                           "reference")]

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

    paths = []
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
                paths.append(PathFamily(center, fam_a, fam_b, f"vertex{v}:{name_a}|{name_b}"))
    return paths


class GateClassification:
    """A gate's verdict, its two jumps and the witness behind them.

    The witness is kept in two parts: its head, the witness dict with each
    path's ``rows`` as its row count, and the rows of all paths, in order,
    as one float table over :data:`ROW_COLUMNS` (NaN where a value is
    ``None``).  ``GateClassification(**cls.to_json())`` splits a witness
    dict into them once; :func:`classify` builds them as they are.  Each
    read of ``witness`` builds a new dict from them, which shares no
    container with the classification, so a census, which reads the
    verdict, the jumps and the digest, builds no row dict.
    """

    def __init__(self, verdict, sigma_jump, rho_hat_jump, witness):
        self.verdict, self.sigma_jump, self.rho_hat_jump = verdict, sigma_jump, rho_hat_jump
        paths = witness["paths"]
        self._head = dict(witness, paths=[dict(path, rows=len(path["rows"])) for path in paths])
        self._table = np.array([_row_values(row) for path in paths for row in path["rows"]],
                               dtype=float)

    @property
    def witness(self):
        witness = _float_slots(self._head, [])  # new containers all through
        rows, start = _witness_rows(self._table), 0
        for path in witness["paths"]:
            path["rows"], start = rows[start:start + path["rows"]], start + path["rows"]
        return witness

    def to_json(self):
        return {
            "verdict": self.verdict,
            "sigma_jump": self.sigma_jump,
            "rho_hat_jump": self.rho_hat_jump,
            "witness": self.witness,
        }

    def witness_digest(self):
        """sha256 of :meth:`to_json`, with every float rounded to
        :data:`_DIGEST_DECIMALS` decimals.

        The two parts of the witness are hashed in turn: the ``sort_keys``
        JSON of :meth:`to_json` with the head in place of the witness, then
        the row table as one little-endian float64 array.  One rule,
        :func:`_rounded`, rounds every float of both parts, wherever it sits
        in the head, so a new witness field enters the first part as it is.
        Values that differ by rounding noise hash alike, unless they lie
        within that noise of a rounding tie.  The floats of the first part
        are rounded as one array, not one by one, which takes half the time.
        """
        slots = []
        head = _float_slots({"verdict": self.verdict, "sigma_jump": self.sigma_jump,
                             "rho_hat_jump": self.rho_hat_jump, "witness": self._head}, slots)
        for (container, key), value in zip(slots, _rounded([c[k] for c, k in slots]).tolist()):
            container[key] = value
        digest = hashlib.sha256(_HEAD_JSON(head).encode())
        digest.update(_rounded(self._table).astype("<f8").tobytes())
        return digest.hexdigest()


def _witness_rows(table):
    """Row dicts of a witness table: NaN as ``None``, ``k_a`` and ``k_b`` as ints."""
    rows = []
    for values in table.tolist():
        row = dict(zip(ROW_COLUMNS, [None if v != v else v for v in values]))
        for key in ("k_a", "k_b"):
            if row[key] is not None:
                row[key] = int(row[key])
        rows.append(row)
    return rows


def _rounded(values):
    """``values`` as a float array rounded to :data:`_DIGEST_DECIMALS`
    decimals, ``None`` as NaN; adding 0.0 makes a rounded -0.0 a 0.0."""
    return np.round(np.asarray(values, dtype=float), _DIGEST_DECIMALS) + 0.0


def _float_slots(tree, slots):
    """A copy of ``tree``, nested plain dicts, lists and tuples, with new
    dicts and lists; the ``(container, key)`` of each float in the copy is
    appended to ``slots``."""
    if type(tree) is dict:
        copy, items = dict(tree), tree.items()
    else:
        copy, items = list(tree), enumerate(tree)
    for key, value in items:
        kind = type(value)
        if kind is dict or kind is list or kind is tuple:
            copy[key] = _float_slots(value, slots)
        elif issubclass(kind, float):
            slots.append((copy, key))
    return copy


def _analyze(families, solved, layout, jump_tol, limits):
    """Per-path verdicts of ``families`` from the qualifying tail of each
    path, and the rows of all paths as one float table.

    ``layout`` is the :class:`_Layout` of ``families`` on their grid that
    :func:`_solve` solved into ``solved``.  The table, one row per path and
    ``eps`` over :data:`ROW_COLUMNS`, is filled column by column from
    ``solved``'s arrays: the running jumps of all rows come from one batched
    trace distance of the indexed stacks each, and a cell is NaN where a
    side's solve failed.  A path's qualifying tail counts its finest rows
    where both directions pinned a unique fixed state; only a count of two
    or more trusts the last row as a limit.  The new limits of each center,
    their rows of ``solved.sigmas``, are tested against its set as one stack
    (``_in_set``) into ``limits``, keyed by ``(center, point number)``, so no
    limit is tested twice.  A path without a tail keeps its largest sigma
    jump.  Each path's analysis holds its row count in ``rows``.
    """
    paths, _, n = layout.at.shape
    at_a, at_b = layout.at_a, layout.at_b
    (k_a, entropy_a), (k_b, entropy_b) = solved.columns[at_a].T, solved.columns[at_b].T
    jumps = [trace_distance(stack[at_a], stack[at_b]) for stack in (solved.sigmas, solved.rho_hats)]
    table = np.column_stack([layout.epsilon, k_a, k_b, *jumps, entropy_a, entropy_b])
    table[np.isnan(k_a) | np.isnan(k_b), 3:5] = np.nan
    unique = ((k_a == 0) & (k_b == 0)).reshape(paths, n)
    tails = np.cumprod(unique[:, ::-1], axis=1).sum(axis=1).tolist()
    most = np.fmax.reduce(table[:, 3].reshape(paths, n), axis=1, initial=0.0).tolist()
    last = table[n - 1::n, 3:5].tolist()
    limit_at = layout.limit_at

    untested = {}  # center -> {number of a limit not yet tested: None}, in order
    for fam, tail, numbers in zip(families, tails, limit_at):
        if tail >= 2:
            for i in numbers:
                if (fam.center, i) not in limits:
                    untested.setdefault(fam.center, {})[i] = None
    for center, numbers in untested.items():
        numbers = list(numbers)
        limits.update(zip([(center, i) for i in numbers], _in_set(
            solved.centers[center], solved.sigmas[numbers], LIMIT_MEMBERSHIP_TOL)))

    analyses = []
    for fam, tail, numbers, sigma_jump, jump in zip(families, tails, limit_at, most, last):
        notes, verdict = [], "continuous_witnessed_none"
        rho_hat_jump, limits_in_set, near_threshold = 0.0, None, False
        if tail >= 2:
            sigma_jump, rho_hat_jump = jump
            limits_in_set = [limits[fam.center, i] for i in numbers]
            near_threshold = (
                jump_tol / 2 < sigma_jump < 2 * jump_tol
                or jump_tol / 2 < rho_hat_jump < 2 * jump_tol
            )
            if sigma_jump > jump_tol and all(limits_in_set):
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

        analyses.append({
            "label": fam.label,
            "verdict": verdict,
            "sigma_jump": sigma_jump,
            "rho_hat_jump": rho_hat_jump,
            "center_k": solved.centers[fam.center].k,
            "tail_length": tail,
            "limits_in_set": limits_in_set,
            "near_threshold": near_threshold,
            "notes": notes,
            "rows": n,
        })
    return analyses, table


def classify(
    u,
    strategy="vertex_pairs",
    families=None,
    epsilons=DEFAULT_EPSILONS,
    jump_tol=JUMP_TOL,
    rule=None,
    seed=0,
    max_refinements=2,
):
    """Classify a gate by probing for discontinuities of the induced map.

    The families are generated by ``strategy``, or given as ``families``
    (witness strategy ``"user_paths"``; ``strategy`` must then keep its
    default).  Each is probed on ``epsilons`` and refined (next eps =
    finest / 10) up to ``max_refinements`` times per gate, in family order,
    while its measured jump lies within a factor of two of ``jump_tol``.
    ``seed`` is accepted and read nowhere, for callers that still pass one;
    no strategy draws random states.
    """
    base_eps = _epsilon_grid(epsilons)
    _check_refinement(jump_tol, max_refinements)
    solved, limits = _Solved(u), {}
    if families is None:
        _check_strategy(strategy, u.dim1, u.dim2)
        # the walk of generated families against a fresh table is their plan
        families, layout = _plan(strategy, u.dim1, tuple(base_eps))
        solved.number.update(layout.number)
    else:
        if strategy != "vertex_pairs":
            raise ValueError(f"strategy={strategy!r} applies only to generated families")
        _check_user_families(families)
        strategy = "user_paths"
        layout = _walk(families, base_eps, solved.number, solved.centers)
        _check_approach(families, base_eps, layout.todo)

    _solve(layout, rule, solved)
    analyses, table = _analyze(families, solved, layout, jump_tol, limits)
    refined = {}  # path number -> its table, for each refined path
    refinements_used = 0
    # No base grid holds a refined eps, so refining after every family is
    # analysed gives the analyses of refining each family in turn.
    for i, fam in enumerate(families):
        eps = base_eps
        while analyses[i]["near_threshold"] and refinements_used < max_refinements:
            eps = eps + [min(eps) / 10.0]
            refinements_used += 1
            layout = _walk([fam], eps, solved.number, solved.centers)
            _solve(layout, rule, solved)
            (analyses[i],), refined[i] = _analyze([fam], solved, layout, jump_tol, limits)
    if refined:
        n = len(base_eps)
        table = np.concatenate([refined.get(i, table[i * n:(i + 1) * n])
                                for i in range(len(families))])

    rank = {v: i for i, v in enumerate(VERDICTS)}
    best = max(analyses, key=lambda a: (rank[a["verdict"]], a["rho_hat_jump"], a["sigma_jump"]))
    cls = GateClassification.__new__(GateClassification)
    cls.verdict, cls.sigma_jump, cls.rho_hat_jump = (
        best["verdict"], best["sigma_jump"], best["rho_hat_jump"])
    cls._table, cls._head = table, {
        "strategy": strategy,
        "jump_tol": jump_tol,
        "limit_membership_tol": LIMIT_MEMBERSHIP_TOL,
        "epsilons": base_eps,
        "refinements_used": refinements_used,
        "best_path": best["label"],
        "paths": analyses,
    }
    return cls


def witness_csv_rows(classification):
    """Rows of the witness CSV for the path behind the verdict."""
    witness = classification.witness
    best = next(p for p in witness["paths"] if p["label"] == witness["best_path"])
    out = [list(ROW_COLUMNS)]
    for row in best["rows"]:
        out.append([row[h] if row[h] is not None else "" for h in ROW_COLUMNS])
    return out
