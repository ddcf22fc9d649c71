"""Self-consistency analysis for a system interacting with a looping ancilla.

A joint unitary ``U`` on ``H1 (x) H2`` couples an incoming system state
``rho`` on ``H1`` to a second factor whose state must reproduce itself after
the interaction.  The induced map on the second factor,

    T(sigma) = Tr_1(U (rho (x) sigma) U^dagger),

is affine in ``sigma``, so in traceless Hermitian coordinates it is a real
affine map ``x -> M x + c``.  Its fixed states form a non-empty compact convex
set: a particular solution plus the span of the null space of ``M - I``,
intersected with the PSD cone.  The solver factors ``M - I`` by one SVD,
whose pseudoinverse refines candidates by a least-squares projection onto the
affine solution subspace and serves :func:`membership` too.  Candidates come
in one order: the refined origin (exact for the common trivial null space),
then at every 64th step of Cesaro-averaged iteration the refined and the raw
running mean.  The first within the inner tolerances is the particular
solution, kept with the spectrum its check computed; failing that, the best
by (negativity, residual) is accepted with a warning or raises.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import hermitian_basis
from .linalg import (
    conjugate, hermitian_trace_norm, matrix_to_json, partial_trace_1, partial_trace_2)
from .states import DensityOperator, _validated

__all__ = [
    "SV_TOL",
    "RESIDUAL_TOL",
    "MAX_ITERATIONS",
    "SolverDiagnostic",
    "AffineMapReal",
    "FixedPointSet",
    "MembershipCheck",
    "deutsch_map",
    "evolve_out",
    "build_superoperator",
    "fixed_point_set",
    "membership",
]

SV_TOL = 1e-9
RESIDUAL_TOL = 1e-10
MAX_ITERATIONS = 100_000

# Inner acceptance thresholds for iterate candidates; stricter than the
# reported tolerances so accepted solutions validate with margin.
_EIG_SLACK = 5e-13
_EARLY_RESIDUAL = 1e-12
_CHECK_EVERY = 64


class SolverDiagnostic(RuntimeError):
    """The fixed-point solve could not certify a solution within tolerance."""


@dataclass(frozen=True)
class AffineMapReal:
    """Real affine map ``x -> linear @ x + offset`` on traceless coordinates."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        offset = np.asarray(self.offset, dtype=float)
        n = offset.shape[0]
        if linear.shape != (n, n):
            raise ValueError(f"linear part {linear.shape} does not match offset length {n}")
        if not (np.all(np.isfinite(linear)) and np.all(np.isfinite(offset))):
            raise ValueError("affine map entries must be finite")
        linear.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "offset", offset)

    @property
    def n(self):
        return self.offset.shape[0]

    def apply(self, x):
        return self.linear @ np.asarray(x, dtype=float) + self.offset

    def to_json(self):
        return {"linear": self.linear.tolist(), "offset": self.offset.tolist()}


@dataclass
class MembershipCheck:
    """Result of testing a state against a fixed-point set."""

    ok: bool
    affine_residual: float
    map_residual: float
    tol: float


@dataclass
class FixedPointSet:
    """Fixed states of the induced map, as ``particular + span(basis)``.

    ``basis`` holds ``k`` traceless Hermitian directions, orthonormal in the
    Hilbert-Schmidt inner product; the set itself is the slice of the affine
    subspace inside the PSD cone.  ``k == 0`` means the fixed state is unique.
    """

    dim2: int
    particular: DensityOperator
    basis: list
    k: int
    affine: AffineMapReal
    affine_gap: np.ndarray  # ``linear - I``, the matrix the solve factored
    affine_pinv: np.ndarray  # its pseudoinverse at cutoff SV_TOL
    residuals: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def state_at(self, coeffs):
        """State ``particular + sum_i coeffs[i] basis[i]``; raises if not PSD."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.k,):
            raise ValueError(f"expected {self.k} coefficients, got {coeffs.shape}")
        m = self.particular.matrix.copy()
        for t, b in zip(coeffs, self.basis):
            m = m + t * b
        return DensityOperator(m)

    def to_json(self):
        return {
            "dim2": self.dim2,
            "k": self.k,
            "particular": self.particular.to_json(),
            "basis": [matrix_to_json(b) for b in self.basis],
            "affine": self.affine.to_json(),
            "residuals": self.residuals,
            "warnings": list(self.warnings),
        }


def _interact(u, rhos, sigmas):
    """Joint states ``U (rho (x) sigma) U^dagger`` of input stacks; a stack of
    one pairs with every input.  The broadcast product is ``np.kron``'s."""
    joint = rhos[:, :, None, :, None] * sigmas[:, None, :, None, :]
    joint = joint.reshape(-1, u.dim, u.dim)
    return conjugate(u.matrix, joint, permutation=u.permutation)


def _emit(u, rhos, sigmas):
    """First-factor states ``(N, d1, d1)`` after each ``rho`` meets its ``sigma``."""
    return partial_trace_2(_interact(u, rhos, sigmas), u.dim1, u.dim2)


def deutsch_map(u, rho, sigma):
    """One pass of the second factor through the interaction."""
    w = _interact(u, rho.matrix[None], sigma.matrix[None])
    return DensityOperator(partial_trace_1(w, u.dim1, u.dim2)[0])


def evolve_out(u, rho, sigma):
    """State of the first factor after interacting with ancilla ``sigma``."""
    return DensityOperator(_emit(u, rho.matrix[None], sigma.matrix[None])[0])


def build_superoperator(u, rho):
    """Induced map on the second factor as a real affine map.

    Column ``j`` of the linear part is the image of traceless basis element
    ``B_j``; the offset is the image of ``I/dim2``.  The map is trace
    preserving, so images of traceless inputs stay traceless.
    """
    if rho.dim != u.dim1:
        raise ValueError(f"system dim {rho.dim} does not match gate dim1 {u.dim1}")
    d2 = u.dim2
    b2 = hermitian_basis(d2)
    inputs = np.concatenate([np.eye(d2, dtype=complex)[None] / d2, b2.traceless])
    images = partial_trace_1(_interact(u, rho.matrix[None], inputs), u.dim1, d2)
    coords = b2.traceless_coords(images)
    return AffineMapReal(np.ascontiguousarray(coords[1:].T), coords[0])


def _truncated_pinv(a):
    """SVD pieces of ``a`` plus its pseudoinverse with cutoff :data:`SV_TOL`."""
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > SV_TOL))
    pinv = vt[:rank].T @ np.diag(1.0 / s[:rank]) @ u[:, :rank].T  # zeros at rank 0
    return s, vt, rank, pinv


def _canonical_sign(v, tol=1e-12):
    for vi in v:
        if abs(vi) > tol:
            return v if vi > 0 else -v
    return v


def _map_residual(aff, b2, x, m):
    """Trace distance that one application of the map moves ``m``, whose
    traceless coordinates are ``x``."""
    return 0.5 * hermitian_trace_norm(b2.from_traceless(aff.apply(x)) - m)


def fixed_point_set(u, rho, residual_tol=RESIDUAL_TOL, max_iterations=MAX_ITERATIONS):
    """Solve ``T(sigma) = sigma`` for the induced map of ``(u, rho)``.

    Returns a :class:`FixedPointSet`; raises :class:`SolverDiagnostic` when no
    candidate reaches ``residual_tol`` in trace distance (or fails PSD
    validation) within ``max_iterations`` Cesaro iterations.
    """
    aff = build_superoperator(u, rho)
    d2 = u.dim2
    b2 = hermitian_basis(d2)
    n = b2.n_traceless
    warnings = []

    a = aff.linear - np.eye(n)
    c = aff.offset
    s, vt, rank, a_pinv = _truncated_pinv(a)
    k = n - rank

    gray = s[(s > SV_TOL / 10) & (s < SV_TOL * 10)]
    if gray.size:
        warnings.append(
            f"singular values {gray.tolist()} lie within a decade of the cutoff {SV_TOL}"
        )

    basis_mats = [b2.from_traceless(_canonical_sign(v), trace=0.0) for v in vt[rank:]]

    def refine(y):
        return y - a_pinv @ (a @ y + c)

    def candidates():
        """``(iterations, x)`` in order.  The running mean of the orbit of the
        maximally mixed state converges to a fixed state, and refinement
        removes the remaining error transverse to the solution subspace."""
        yield 0, refine(np.zeros(n))
        x = np.zeros(n)
        mean = np.zeros(n)
        for i in range(1, max_iterations + 1):
            x = aff.linear @ x + c
            mean += (x - mean) / i
            if i % _CHECK_EVERY == 0 or i == max_iterations:
                yield i, refine(mean)
                yield i, mean.copy()

    best = None  # (key, x, m, evals, lo, td) of the best candidate so far
    for iterations, x in candidates():
        m = b2.from_traceless(x)
        evals = np.linalg.eigvalsh(m)
        lo = float(np.min(evals))
        td = _map_residual(aff, b2, x, m)
        key = (max(0.0, -lo), td)
        if best is None or key < best[0]:
            best = key, x, m, evals, lo, td
        if lo >= -_EIG_SLACK and td <= _EARLY_RESIDUAL:
            break
    else:
        _, x, m, evals, lo, td = best
        if lo < -1e-10 or td > residual_tol:
            raise SolverDiagnostic(
                f"no fixed-point candidate within tolerance after {iterations} "
                f"iterations (min eigenvalue {lo:.3e}, residual {td:.3e})"
            )
        warnings.append(
            f"slow convergence: accepted candidate with residual {td:.3e} "
            f"after {iterations} iterations"
        )

    if td > residual_tol:
        raise SolverDiagnostic(f"fixed-point residual {td:.3e} exceeds {residual_tol}")
    try:
        # ``m`` is exactly Hermitian, so ``evals`` is the spectrum of the stored state.
        particular = DensityOperator._of(*_validated(m, 2, evals))
    except ValueError as exc:
        raise SolverDiagnostic(f"fixed-point candidate failed validation: {exc}") from exc

    return FixedPointSet(
        dim2=d2,
        particular=particular,
        basis=basis_mats,
        k=k,
        affine=aff,
        affine_gap=a,
        affine_pinv=a_pinv,
        residuals={
            "map_trace_distance": td,
            "affine_norm": float(np.linalg.norm(a @ x + c)),
            "min_eigenvalue": lo,
            "iterations": iterations,
        },
        warnings=warnings,
    )


def membership(fps, sigma, tol=RESIDUAL_TOL):
    """Test whether ``sigma`` lies in the fixed-point set.

    Both the distance from the affine solution subspace (in coordinate norm)
    and the trace distance moved by one application of the map must fall
    below ``tol``.  The subspace distance uses ``M - I`` and its
    pseudoinverse at :data:`SV_TOL` as the solve formed them.
    """
    if sigma.dim != fps.dim2:
        raise ValueError(f"state dim {sigma.dim} does not match set dim {fps.dim2}")
    b2 = hermitian_basis(fps.dim2)
    x = b2.traceless_coords(sigma.matrix)
    r = fps.affine_gap @ x + fps.affine.offset
    affine_residual = float(np.linalg.norm(fps.affine_pinv @ r))
    map_residual = _map_residual(fps.affine, b2, x, sigma.matrix)
    return MembershipCheck(
        ok=(affine_residual <= tol and map_residual <= tol),
        affine_residual=affine_residual,
        map_residual=map_residual,
        tol=tol,
    )
