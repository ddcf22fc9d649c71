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
affine solution subspace and serves :func:`membership` too.

A solve has a core and a finish.  :func:`_cores` builds the cores of a
stack of states at once: their maps, one stacked SVD and pseudoinverse,
their refined origins, checked as candidates with one ``eigvalsh`` and
measured by one stacked affine norm, and the singular values within a
decade of the cutoff, found with one mask.  Each entry is bit for bit what
the state's own solve computes, so the stack changes no output.
``fixed_point_set`` finishes one state's solve from its core, or from a
stack of one that it builds itself: it reports the core's singular values
near the cutoff, builds the null basis as one stack unless the rank is full
(a unique set shares one empty stack per ``dim2``), and accepts
the refined origin with its norm, exact for the common trivial null space,
when it passes.  Otherwise the Cesaro fallback checks, at every 64th step
of Cesaro-averaged iteration, the refined and then the raw running mean, in
blocks of 1, 2, 4, ... up to 64 checkpoints, so a block runs at most as many
steps past the accepted checkpoint as the solve had run before it; the
accepted candidate's norm is then ``np.linalg.norm``'s.  The first candidate
within the inner tolerances is the particular solution, kept with the
spectrum its check computed; failing that, the best by (negativity,
residual) is accepted with a warning or raises.  The particular is not
validated again: ``from_traceless`` made it exactly Hermitian with unit
trace, its spectrum passed the PSD check, and it is finite, as gates and
states are.

:func:`membership` tests one state against a solved set; :func:`_in_set`
tests a stack of states against one set, with the same bits.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import hermitian_basis
from .linalg import (
    _trace_1_gather, conjugate, hermitian_trace_norm, matrix_to_json, partial_trace_1,
    partial_trace_2)
from .states import PSD_TOL, DensityOperator, _check_count

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
# reported tolerances, so an accepted solution is a valid state with margin.
_EIG_SLACK = 5e-13
_EARLY_RESIDUAL = 1e-12
_CHECK_EVERY = 64
_MAX_BLOCK = 64  # most checkpoints in one candidate stack


class SolverDiagnostic(RuntimeError):
    """The fixed-point solve could not certify a solution within tolerance."""


@dataclass(frozen=True)
class AffineMapReal:
    """Real affine map ``x -> linear @ x + offset`` that :func:`build_superoperator` makes."""

    linear: np.ndarray
    offset: np.ndarray

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

    ``basis`` is a read-only stack ``(k, dim2, dim2)`` of traceless Hermitian
    directions, orthonormal in the Hilbert-Schmidt inner product; the set
    itself is the slice of the affine subspace inside the PSD cone.
    ``k == 0`` means the fixed state is unique, and its stack is empty.
    """

    dim2: int
    particular: DensityOperator
    basis: np.ndarray
    k: int
    affine: AffineMapReal
    affine_gap: np.ndarray  # ``linear - I``, the matrix the solve factored
    affine_pinv: np.ndarray  # its pseudoinverse at cutoff SV_TOL
    residuals: dict
    warnings: list

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
    """Joint states ``U (rho (x) sigma) U^dagger``, one stack ``(N, d, d)``, of
    input stacks broadcast over their leading axes.  The broadcast product is
    ``np.kron``'s."""
    joint = rhos[..., :, None, :, None] * sigmas[..., None, :, None, :]
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


@lru_cache(maxsize=None)
def _solve_constants(d2):
    """Read-only input stack ``[I/d2, B_1, ...]`` of the superoperator of a
    ``d2``-dimensional loop, the identity that ``M - I`` subtracts, and the
    empty null basis ``(0, d2, d2)`` that every unique set shares."""
    inputs = np.concatenate([np.eye(d2, dtype=complex)[None] / d2,
                             hermitian_basis(d2).traceless])
    eye = np.eye(d2 * d2 - 1)
    empty = np.empty((0, d2, d2), dtype=complex)
    for a in (inputs, eye, empty):
        a.setflags(write=False)
    return inputs, eye, empty


def _superoperators(u, rhos):
    """Linear parts ``(N, n, n)`` and offsets ``(N, n)`` of the induced maps
    of a state stack ``(N, dim1, dim1)``, each bit for bit its own.

    Column ``j`` of a linear part is the image of traceless basis element
    ``B_j``; the offset is the image of ``I/dim2``.  The map is trace
    preserving, so images of traceless inputs stay traceless.  A permutation
    gate gathers only the entries of ``rho`` and of the inputs whose products
    the partial trace adds, and adds them in the order ``partial_trace_1``
    does.
    """
    if rhos.shape[-1] != u.dim1:
        raise ValueError(f"system dim {rhos.shape[-1]} does not match gate dim1 {u.dim1}")
    d2 = u.dim2
    inputs = _solve_constants(d2)[0]
    if u.permutation is None:
        images = partial_trace_1(_interact(u, rhos[:, None], inputs), u.dim1, d2)
    else:
        (i, j), (a, b) = _trace_1_gather(u.permutation, d2)
        images = (rhos[:, None, i, j] * inputs[:, a, b]).sum(axis=-3)
    coords = hermitian_basis(d2).traceless_coords(images).reshape(len(rhos), d2 * d2, -1)
    return np.ascontiguousarray(coords[:, 1:].swapaxes(1, 2)), coords[:, 0]


def build_superoperator(u, rho):
    """Induced map on the second factor as a real affine map, the stack of
    one of :func:`_superoperators`."""
    linear, offset = _superoperators(u, rho.matrix[None])
    return AffineMapReal(linear[0], offset[0])


def _canonical_sign(v):
    """``v`` signed so that its first entry above 1e-12 in magnitude is positive."""
    lead = next(vi for vi in v if abs(vi) > 1e-12)  # a unit row of ``vt`` has one
    return v if lead > 0 else -v


def _refine(gap, pinv, offset, ys):
    """``y - pinv @ (gap @ y + offset)`` of each row of ``ys``, for one map or
    a stack of maps with one row each."""
    return ys - (pinv @ (gap @ ys[..., None] + offset[..., None]))[..., 0]


def _assess(linear, offset, b2, xs):
    """Matrices, spectra, minimum eigenvalues and map residuals (the trace
    distance one application of the map moves each) of a stack ``(N, n)`` of
    candidate coordinates, each bit for bit its own, for one map or a stack
    of maps with one row each.  Both spectra come from one ``eigvalsh``; the
    matrices and spectra are read-only, as a state's are."""
    images = (linear @ xs[..., None])[..., 0] + offset
    mats = b2.from_traceless(np.stack((xs, images)))
    np.subtract(mats[1], mats[0], out=mats[1])
    spectra = np.linalg.eigvalsh(mats)
    mats.setflags(write=False)
    spectra.setflags(write=False)
    return mats[0], spectra[0], spectra[0].min(axis=-1), 0.5 * abs(spectra[1]).sum(axis=-1)


def _cores(u, linear, offset):
    """Solve cores of the maps ``(N, n, n)``, ``(N, n)`` of :func:`_superoperators`,
    one per map: ``(affine map, M - I, vt, rank, pseudoinverse, gray
    singular values, refined origin, its affine norm)``, with the origin as a
    checked candidate, the gray singular values those within a decade of
    :data:`SV_TOL`, as a list that is empty for almost every map, and the
    norm ``|(M - I) x + c|`` of the origin ``x`` from matrix-vector products
    and a dot product, as ``np.linalg.norm`` computes it.

    One SVD, one mask and one :func:`_assess` serve the stack.  The
    pseudoinverse weights the singular vectors by ``1/s`` above
    :data:`SV_TOL` and by 0 below it, which adds only zero terms to each
    entry of the rank-truncated product, so it needs no grouping by rank.
    """
    b2 = hermitian_basis(u.dim2)
    gap = linear - _solve_constants(u.dim2)[1]
    left, s, vt = np.linalg.svd(gap)
    kept = s > SV_TOL
    weights = 1.0 / np.where(kept, s, np.inf)  # ``vt.T / s`` would round differently
    pinv = (vt.swapaxes(1, 2) * weights[:, None, :]) @ left.swapaxes(1, 2)
    near = (s > SV_TOL / 10) & (s < SV_TOL * 10)
    grays = [s[i, near[i]].tolist() if hit else []
             for i, hit in enumerate(near.any(axis=1).tolist())]
    xs = _refine(gap, pinv, offset, np.zeros(offset.shape))
    mats, spectra, los, tds = _assess(linear, offset, b2, xs)
    r = (gap @ xs[..., None])[..., 0] + offset
    norms = np.sqrt(r[:, None, :] @ r[:, :, None])[:, 0, 0].tolist()
    ranks, los, tds = kept.sum(axis=1).tolist(), los.tolist(), tds.tolist()
    return [(AffineMapReal(linear[i], offset[i]), gap[i], vt[i], ranks[i], pinv[i], grays[i],
             (0, xs[i], mats[i], spectra[i], los[i], tds[i]), norms[i])
            for i in range(len(ranks))]


def _passes(candidate):
    """Whether ``(iterations, x, m, evals, lo, td)`` meets the inner thresholds."""
    lo, td = candidate[4:]
    return lo >= -_EIG_SLACK and td <= _EARLY_RESIDUAL


def _cesaro_candidate(aff, b2, refine, origin, residual_tol, max_iterations, warnings):
    """The candidate to accept once the refined ``origin`` has failed, in the
    order the module docstring gives.  The running mean of the orbit of the
    maximally mixed state converges to a fixed state, and ``refine`` removes
    the remaining error transverse to the solution subspace.  Each step stays
    one ``linear @ x + c`` and one mean update, written into preallocated
    buffers: their rounding decides whether a knife-edge solve raises."""
    linear, c = aff.linear, aff.offset
    n = c.shape[0]

    def blocks():
        """``(iterations, xs)`` stacks of checkpoint candidates in order."""
        x, t, mean = np.zeros(n), np.empty(n), np.zeros(n)
        dot, add, subtract, divide = np.dot, np.add, np.subtract, np.divide
        i, size = 0, 1
        while i < max_iterations:
            means, steps = np.empty((size, n)), []
            while len(steps) < size and i < max_iterations:
                stop = min(i - i % _CHECK_EVERY + _CHECK_EVERY, max_iterations)
                for i in range(i + 1, stop + 1):
                    dot(linear, x, out=t)
                    add(t, c, out=x)
                    subtract(x, mean, out=t)
                    divide(t, i, out=t)
                    add(mean, t, out=mean)
                means[len(steps)] = mean
                steps.append(i)
            means = means[:len(steps)]
            xs = np.stack((refine(means), means), axis=1).reshape(-1, n)
            yield np.repeat(steps, 2).tolist(), xs
            size = min(2 * size, _MAX_BLOCK)

    def key(candidate):
        return max(0.0, -candidate[4]), candidate[5]

    best = last = origin
    for steps, xs in blocks():
        mats, spectra, los, tds = _assess(linear, c, b2, xs)
        for j, iterations in enumerate(steps):
            last = iterations, xs[j], mats[j], spectra[j], float(los[j]), float(tds[j])
            if _passes(last):
                return last
            if key(last) < key(best):
                best = last
    iterations = last[0]
    _, x, m, evals, lo, td = best
    if lo < -PSD_TOL or td > residual_tol:
        raise SolverDiagnostic(
            f"no fixed-point candidate within tolerance after {iterations} "
            f"iterations (min eigenvalue {lo:.3e}, residual {td:.3e})"
        )
    warnings.append(
        f"slow convergence: accepted candidate with residual {td:.3e} "
        f"after {iterations} iterations"
    )
    return iterations, x, m, evals, lo, td


def fixed_point_set(u, rho, residual_tol=RESIDUAL_TOL, max_iterations=MAX_ITERATIONS, *,
                    core=None):
    """Solve ``T(sigma) = sigma`` for the induced map of ``(u, rho)``.

    Returns a :class:`FixedPointSet`; raises :class:`SolverDiagnostic` when no
    candidate reaches ``residual_tol`` in trace distance, with no eigenvalue
    below ``-PSD_TOL``, within ``max_iterations`` Cesaro iterations, and
    ``ValueError`` for a NaN ``residual_tol``.  ``core``
    is ``rho``'s entry of :func:`_cores` when a caller built a stack of them;
    without it the solve builds its own, as a stack of one.
    """
    max_iterations = _check_count("max_iterations", max_iterations)
    if math.isnan(residual_tol):  # it would pass every residual check
        raise ValueError("residual_tol must not be NaN")
    if core is None:
        core, = _cores(u, *_superoperators(u, rho.matrix[None]))
    aff, a, vt, rank, a_pinv, gray, origin, origin_norm = core
    d2 = u.dim2
    b2 = hermitian_basis(d2)
    warnings = []
    if gray:
        warnings.append(f"singular values {gray} lie within a decade of the cutoff {SV_TOL}")

    k = b2.n_traceless - rank
    if k:
        basis = b2.from_traceless(np.stack([_canonical_sign(v) for v in vt[rank:]]), trace=0.0)
        basis.setflags(write=False)
    else:
        basis = _solve_constants(d2)[2]

    # The refined origin is exact for the common trivial null space; only when
    # it fails does the Cesaro fallback build its orbit.
    if _passes(origin):
        iterations, x, m, evals, lo, td = origin
        affine_norm = origin_norm
    else:
        iterations, x, m, evals, lo, td = _cesaro_candidate(
            aff, b2, lambda ys: _refine(a, a_pinv, aff.offset, ys), origin, residual_tol,
            max_iterations, warnings)
        affine_norm = float(np.linalg.norm(a @ x + aff.offset))

    if td > residual_tol:
        raise SolverDiagnostic(f"fixed-point residual {td:.3e} exceeds {residual_tol}")

    return FixedPointSet(
        dim2=d2,
        particular=DensityOperator._of(m, evals),
        basis=basis,
        k=k,
        affine=aff,
        affine_gap=a,
        affine_pinv=a_pinv,
        residuals={
            "map_trace_distance": td,
            "affine_norm": affine_norm,
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
    moved = b2.from_traceless(fps.affine.apply(x)) - sigma.matrix
    map_residual = 0.5 * hermitian_trace_norm(moved)
    return MembershipCheck(
        ok=(affine_residual <= tol and map_residual <= tol),
        affine_residual=affine_residual,
        map_residual=map_residual,
        tol=tol,
    )


def _in_set(fps, m, tol):
    """``membership(fps, sigma, tol).ok`` of each state ``sigma`` of the
    matrix stack ``m`` ``(N, d2, d2)``.  Each product is a matrix-vector
    product and each sum of squares a dot product, as in :func:`membership`,
    so every residual is bit for bit its own; a stack of one would slow
    :func:`membership`, which the Bloch slice calls once per cell."""
    b2 = hermitian_basis(fps.dim2)
    xs = b2.traceless_coords(m)
    r = (fps.affine_gap @ xs[..., None])[..., 0] + fps.affine.offset
    v = (fps.affine_pinv @ r[..., None])[..., 0]
    affine = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]
    images = (fps.affine.linear @ xs[..., None])[..., 0] + fps.affine.offset
    moved = 0.5 * hermitian_trace_norm(b2.from_traceless(images) - m)
    return ((affine <= tol) & (moved <= tol)).tolist()
