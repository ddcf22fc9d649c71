"""Selecting one fixed state when the self-consistency condition is degenerate.

When the fixed-point set has positive dimension a rule must pick the state
the loop actually settles into.  ``max_entropy`` maximizes the von Neumann
entropy over the set; strict concavity makes that choice unique.
``min_entropy`` minimizes it instead, which in general is *not* unique; the
implementation is deterministic but the state it lands on is one minimizer
among possibly many.  ``constant_index`` pins fixed coefficients over the
degeneracy directions without optimizing.

Both entropy rules run gradient iteration over the coefficient vector ``t``
of ``sigma(t) = particular + sum_i t_i basis[i]``, with backtracking until
the iterate stays PSD.  The entropy gradient in these coordinates is
``dS/dt_i = -Tr(basis[i] ln sigma)``, evaluated with eigenvalues floored at
1e-14.  The minimizer adds a deterministic kick: when the gradient vanishes
(as it does at the maximally mixed state) it snaps to the feasibility
boundary along the lexicographically smallest coordinate direction that
lowers the entropy.  ``gradient_norm`` reports the unconstrained gradient at
the final iterate, so boundary solutions may legitimately report large
values together with ``converged=True``.
"""

from dataclasses import dataclass
from collections import deque

import numpy as np

from .deutsch import fixed_point_set, evolve_out
from .states import DensityOperator, von_neumann_entropy

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


def _entropy_of(evals):
    lam = np.clip(evals, 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float(-np.sum(nz * np.log(nz))) + 0.0


def _spectral(m):
    evals, evecs = np.linalg.eigh(m)
    return evals.real, evecs


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


def _state_info(particular, stacked, t):
    m = particular + np.tensordot(t, stacked, axes=1)
    evals, evecs = _spectral(m)
    return m, evals, evecs


def _optimize(fps, rule, sense, start=None):
    """Gradient iteration on ``f = sense * entropy``; ``sense=+1`` maximizes."""
    k = fps.k
    if k == 0:
        return SelectionResult(
            fps.particular, von_neumann_entropy(fps.particular), 0, True, 0.0
        )
    particular = fps.particular.matrix
    stacked = np.stack(fps.basis)

    t = np.zeros(k) if start is None else np.asarray(start, dtype=float).copy()
    if t.shape != (k,):
        raise ValueError(f"start must have {k} coefficients, got {t.shape}")
    _, evals, evecs = _state_info(particular, stacked, t)
    if float(np.min(evals)) < _FEAS_EIG:
        raise ValueError("start coefficients give a non-PSD state")
    entropy = _entropy_of(evals)

    def kick_directions():
        dirs = []
        for i in range(k):
            for sign in (-1.0, 1.0):
                d = np.zeros(k)
                d[i] = sign
                dirs.append(d)
        return sorted(dirs, key=tuple)

    def try_kick(t, entropy):
        """Boundary snap along the first axis direction that lowers entropy."""
        for d in kick_directions():
            s = _boundary_distance(particular, stacked, t, d)
            if s <= 1e-12:
                continue
            cand = t + s * d
            _, ev, _ = _state_info(particular, stacked, cand)
            if _entropy_of(ev) < entropy - _IMPROVE_EPS:
                return cand
        return None

    converged = False
    iterations = 0
    grad_norm = 0.0
    recent = deque(maxlen=5)

    while iterations < rule.max_iters:
        iterations += 1
        g = sense * _gradient(evals, evecs, stacked)
        grad_norm = float(np.linalg.norm(g))

        if grad_norm <= _GRAD_TOL:
            if sense > 0:
                converged = True
                break
            kicked = try_kick(t, entropy)
            if kicked is None:
                converged = True
                break
            t = kicked
            _, evals, evecs = _state_info(particular, stacked, t)
            entropy = _entropy_of(evals)
            recent.clear()
            continue

        accepted = False
        if sense < 0:
            # A concave objective is minimized on the boundary, so try the
            # full snap along the descent direction before backtracking.
            d = g / grad_norm
            s = _boundary_distance(particular, stacked, t, d)
            if s > 1e-12:
                cand = t + s * d
                _, ev, evc = _state_info(particular, stacked, cand)
                if sense * _entropy_of(ev) > sense * entropy:
                    recent.append(abs(_entropy_of(ev) - entropy))
                    t, evals, evecs, entropy = cand, ev, evc, _entropy_of(ev)
                    accepted = True

        if not accepted:
            step = _STEP_INIT
            while step > _MIN_STEP:
                cand = t + step * g
                _, ev, evc = _state_info(particular, stacked, cand)
                if float(np.min(ev)) >= _FEAS_EIG:
                    new_entropy = _entropy_of(ev)
                    if sense * new_entropy > sense * entropy:
                        recent.append(abs(new_entropy - entropy))
                        t, evals, evecs, entropy = cand, ev, evc, new_entropy
                        accepted = True
                        break
                step *= _BACKTRACK_FACTOR

        if not accepted:
            if sense < 0:
                kicked = try_kick(t, entropy)
                if kicked is not None:
                    t = kicked
                    _, evals, evecs = _state_info(particular, stacked, t)
                    entropy = _entropy_of(evals)
                    recent.clear()
                    continue
            # No feasible improving step remains along the gradient.
            converged = True
            break

        if len(recent) == recent.maxlen and max(recent) < _IMPROVE_EPS:
            converged = True
            break

    sigma = DensityOperator(particular + np.tensordot(t, stacked, axes=1))
    return SelectionResult(sigma, entropy, iterations, converged, grad_norm)


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
