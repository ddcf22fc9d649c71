"""Selecting one fixed state when the self-consistency condition is degenerate.

When the fixed-point set has positive dimension a rule must pick the state
the loop actually settles into.  ``max_entropy`` maximizes the von Neumann
entropy over the set; strict concavity makes that choice unique.
``min_entropy`` minimizes it instead, which in general is *not* unique; the
implementation is deterministic but the state it lands on is one minimizer
among possibly many.  ``constant_index`` pins fixed coefficients over the
degeneracy directions without optimizing.

Both entropy rules iterate over the coefficient vector ``t`` of
``sigma(t) = particular + sum_i t_i basis[i]``, along the entropy gradient
``dS/dt_i = -Tr(basis[i] ln sigma)`` with eigenvalues floored at 1e-14.  The
maximizer backtracks each step until the iterate stays PSD and the entropy
rises.  The minimizer moves only to the feasibility boundary: it snaps along
the descent direction, or, when that fails or the gradient vanishes (as at
the maximally mixed state), kicks along the lexicographically smallest
coordinate direction that lowers the entropy.  ``gradient_norm`` reports the
unconstrained gradient at the final iterate, so boundary solutions may
legitimately report large values together with ``converged=True``.
"""

from dataclasses import dataclass
from collections import deque
from typing import NamedTuple

import numpy as np

from .deutsch import fixed_point_set, evolve_out
from .states import DensityOperator, _spectrum_entropy, von_neumann_entropy

__all__ = [
    "RULE_KINDS",
    "SelectionRule",
    "SelectionResult",
    "select",
    "max_entropy_state",
    "min_entropy_state",
    "ctc_channel",
    "sample_feasible",
]

RULE_KINDS = ("max_entropy", "min_entropy", "constant_index")

_EVAL_FLOOR = 1e-14
_FEAS_EIG = -1e-12
_IMPROVE_EPS = 1e-13
_MIN_STEP = 1e-16
_STEP_INIT = 1.0
_BACKTRACK_FACTOR = 0.5
_GRAD_TOL = 1e-10


@dataclass
class SelectionRule:
    kind: str = "max_entropy"
    coordinates: tuple = ()
    max_iters: int = 10_000

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown selection rule {self.kind!r}; expected one of {RULE_KINDS}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        self.coordinates = tuple(float(c) for c in self.coordinates)


@dataclass
class SelectionResult:
    sigma: DensityOperator
    entropy: float
    iterations: int
    converged: bool
    gradient_norm: float

    def to_json(self):
        return {
            "sigma": self.sigma.to_json(),
            "entropy": self.entropy,
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm": self.gradient_norm,
        }


class _Point(NamedTuple):
    """A coefficient vector with the spectrum and entropy of its state."""

    t: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray
    entropy: float


def _gradient(evals, evecs, stacked):
    lam = np.clip(evals, _EVAL_FLOOR, None)
    ln_sigma = (evecs * np.log(lam)) @ evecs.conj().T
    return -np.einsum("kij,ji->k", stacked, ln_sigma).real


def _boundary_distance(particular, stacked, t, d):
    """Largest ``s >= 0`` keeping ``t + s d`` feasible, by doubling + bisection."""

    def feasible(s):
        m = particular + np.tensordot(t + s * d, stacked, axes=1)
        return float(np.min(np.linalg.eigvalsh(m))) >= _FEAS_EIG

    if not feasible(1e-12):
        return 0.0
    lo, hi = 1e-12, 1.0
    doublings = 0
    while feasible(hi):
        lo, hi = hi, hi * 2.0
        doublings += 1
        if doublings > 60:
            return lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _axis_directions(k):
    """Axis directions in lexicographic order: -e_0 .. -e_{k-1}, then +e_{k-1} .. +e_0."""
    eye = np.eye(k)
    # ``0.0 - eye`` keeps its zeros at +0.0, where ``-eye`` would give -0.0.
    return np.concatenate((0.0 - eye, eye[::-1]))


def _optimize(fps, rule, sense, start=None):
    """Gradient iteration on ``f = sense * entropy``; ``sense=+1`` maximizes."""
    k = fps.k
    if k == 0:
        return SelectionResult(
            fps.particular, von_neumann_entropy(fps.particular), 0, True, 0.0
        )
    particular = fps.particular.matrix
    stacked = np.stack(fps.basis)
    kicks = _axis_directions(k) if sense < 0 else ()

    def point(t, require_feasible=False):
        evals, evecs = np.linalg.eigh(particular + np.tensordot(t, stacked, axes=1))
        if require_feasible and float(np.min(evals)) < _FEAS_EIG:
            return None
        return _Point(t, evals, evecs, _spectrum_entropy(evals))

    def boundary_point(t, d):
        s = _boundary_distance(particular, stacked, t, d)
        return point(t + s * d) if s > 1e-12 else None

    def move(cur, g, grad_norm):
        if sense < 0:
            # Entropy is concave, so the descent line's boundary point is its lowest.
            cand = boundary_point(cur.t, g / grad_norm)
            return cand if cand is not None and cand.entropy < cur.entropy else None
        step = _STEP_INIT
        while step > _MIN_STEP:
            cand = point(cur.t + step * g, require_feasible=True)
            if cand is not None and cand.entropy > cur.entropy:
                return cand
            step *= _BACKTRACK_FACTOR
        return None

    def kick(cur):
        for d in kicks:
            cand = boundary_point(cur.t, d)
            if cand is not None and cand.entropy < cur.entropy - _IMPROVE_EPS:
                return cand
        return None

    t = np.zeros(k) if start is None else np.asarray(start, dtype=float).copy()
    if t.shape != (k,):
        raise ValueError(f"start must have {k} coefficients, got {t.shape}")
    cur = point(t, require_feasible=True)
    if cur is None:
        raise ValueError("start coefficients give a non-PSD state")

    converged = False
    iterations = 0
    grad_norm = 0.0
    recent = deque(maxlen=5)

    while iterations < rule.max_iters:
        iterations += 1
        g = sense * _gradient(cur.evals, cur.evecs, stacked)
        grad_norm = float(np.linalg.norm(g))
        nxt = None if grad_norm <= _GRAD_TOL else move(cur, g, grad_norm)
        if nxt is None:
            nxt = kick(cur)
            if nxt is None:
                converged = True
                break
            cur = nxt
            recent.clear()
            continue
        recent.append(abs(nxt.entropy - cur.entropy))
        cur = nxt
        if len(recent) == recent.maxlen and max(recent) < _IMPROVE_EPS:
            converged = True
            break

    sigma = DensityOperator(particular + np.tensordot(cur.t, stacked, axes=1))
    return SelectionResult(sigma, cur.entropy, iterations, converged, grad_norm)


def max_entropy_state(fps, rule=None, start=None):
    """The unique entropy maximizer over the fixed-point set."""
    rule = rule or SelectionRule("max_entropy")
    return _optimize(fps, rule, +1.0, start=start)


def min_entropy_state(fps, rule=None):
    """A deterministic entropy minimizer (in general one of several)."""
    rule = rule or SelectionRule("min_entropy")
    return _optimize(fps, rule, -1.0)


def _constant_index(fps, rule):
    coords = np.zeros(fps.k)
    given = np.asarray(rule.coordinates, dtype=float)
    take = min(fps.k, given.size)
    coords[:take] = given[:take]
    sigma = fps.state_at(coords)
    return SelectionResult(sigma, von_neumann_entropy(sigma), 0, True, 0.0)


def select(fps, rule=None):
    """Apply a selection rule to a fixed-point set."""
    rule = rule or SelectionRule("max_entropy")
    if rule.kind == "max_entropy":
        return max_entropy_state(fps, rule)
    if rule.kind == "min_entropy":
        return min_entropy_state(fps, rule)
    return _constant_index(fps, rule)


def ctc_channel(u, rho, rule=None):
    """End-to-end induced evolution: solve, select, and emit.

    Returns ``(rho_hat, selection)`` where ``rho_hat`` is the state of the
    first factor after interacting with the selected fixed state.
    """
    fps = fixed_point_set(u, rho)
    sel = select(fps, rule)
    return evolve_out(u, rho, sel.sigma), sel


def sample_feasible(fps, rng):
    """Random feasible coefficient vector, roughly uniform over the set.

    Draws a direction, finds the feasibility boundary along it, then places
    the radius with the ``r**(1/k)`` law a uniform section sample would use.
    """
    if fps.k == 0:
        return np.zeros(0)
    particular = fps.particular.matrix
    stacked = np.stack(fps.basis)
    d = rng.standard_normal(fps.k)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        return np.zeros(fps.k)
    d /= norm
    s = _boundary_distance(particular, stacked, np.zeros(fps.k), d)
    radius = s * rng.uniform() ** (1.0 / fps.k)
    return radius * d
