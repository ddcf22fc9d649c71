"""Density operators, unitary gates, and qubit states from Bloch vectors.

Validation tolerances are deliberately strict and uniform across the package:
Hermiticity and unit trace to 1e-12, positive semidefiniteness to -1e-10 on
the smallest eigenvalue.  The Hermiticity and unitarity checks are written so
that a NaN fails them, which rejects every non-finite entry before the other
checks run; the NaN that an infinite entry produces raises no floating-point
warning.  Every state is validated where it is built, except a solve's
particular state, which the solver in ``deutsch`` has already checked.

The package's two input rules: ``linalg._check_count`` decides what a count
is everywhere (an integral real, not a bool, at least a floor; ``2.0`` reads
as 2), and :func:`_permutation_matrix` checks a permutation by the rule of
:func:`_permutation` before any matrix is built from it.
"""

import numpy as np

from .linalg import (
    _check_count, dagger, hermitian_trace_norm, matrix_from_json, matrix_to_json)

__all__ = [
    "DensityOperator",
    "UnitaryGate",
    "von_neumann_entropy",
    "trace_distance",
    "from_bloch",
]

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNITARY_TOL = 1e-12


def _permutation(images, d):
    """``images`` as a tuple of ints; raises unless it permutes ``0..d-1``
    and each entry is a count (a bool is not one).  A list of exact ints
    takes one sorted comparison."""
    p = tuple(images)
    if not set(map(type, p)) <= {int}:
        p = tuple(_check_count("permutation entry", j) for j in p)
    if sorted(p) != list(range(d)):
        raise ValueError(f"{list(p)} is not a permutation of 0..{d - 1}")
    return p


def _permutation_matrix(images, d):
    """``(tuple of ints, 0/1 matrix with m[images[j], j] == 1)`` of ``images``;
    raises before building the matrix unless it permutes ``0..d-1``."""
    p = _permutation(images, d)
    m = np.zeros((d, d), dtype=complex)
    m[p, range(d)] = 1.0
    return p, m


def _validated(m, ndim):
    """Read-only ``0.5 (m + m^dagger)`` and ``eigvalsh`` spectrum of a density
    matrix (``ndim`` 2) or stack (``ndim`` 3) that passes the checks."""
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {m.shape[ndim - 2:]}")
    mh = m.swapaxes(-1, -2).conj()
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        hermitian = abs(m - mh).max() <= HERM_TOL
    if not hermitian:
        raise ValueError("density matrix has non-finite entries or is not Hermitian to 1e-12")
    tr = m.trace(axis1=-2, axis2=-1)
    off = abs(tr - 1.0) > TRACE_TOL
    if off.any():
        tr = np.ravel(tr)[np.argmax(off)]
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond 1e-12")
    m = 0.5 * (m + mh)
    evals = np.linalg.eigvalsh(m)
    lo = float(evals.min())
    if lo < -PSD_TOL:
        raise ValueError(f"density matrix has eigenvalue {lo} below -1e-10")
    m.setflags(write=False)
    evals.setflags(write=False)
    return m, evals


class DensityOperator:
    """A validated density matrix (Hermitian, PSD, unit trace), with the
    ascending ``eigvalsh`` spectrum its validation computed as ``eigenvalues``."""

    def __init__(self, matrix):
        self.matrix, self.eigenvalues = _validated(np.asarray(matrix, dtype=complex), 2)

    @classmethod
    def _of(cls, matrix, eigenvalues):
        """State of a read-only matrix and its checked spectrum: a pair that
        :func:`_validated` returned, or a solve's accepted particular state."""
        state = cls.__new__(cls)
        state.matrix, state.eigenvalues = matrix, eigenvalues
        return state

    @classmethod
    def from_stack(cls, matrices):
        """Density operators of a stack ``(N, n, n)``, validated as one stack."""
        stack, spectra = _validated(np.asarray(matrices, dtype=complex), 3)
        return [cls._of(m, e) for m, e in zip(stack, spectra)]

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes):
        """Projector onto the (normalized) state vector ``amplitudes``."""
        v = np.asarray(amplitudes, dtype=complex).ravel()
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        v = v / n
        return cls(np.outer(v, np.conjugate(v)))

    @classmethod
    def basis_state(cls, dim, index):
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.pure(v)

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def diagonal(cls, probs):
        return cls(np.diag(np.asarray(probs, dtype=complex)))

    @classmethod
    def product(cls, a, b):
        """Tensor product of two states, first factor on the slow index."""
        return cls(np.kron(a.matrix, b.matrix))

    def to_json(self):
        return matrix_to_json(self.matrix)

    @classmethod
    def from_json(cls, obj):
        return cls(matrix_from_json(obj))

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


class UnitaryGate:
    """A unitary on a bipartite space ``H1 (x) H2``.

    ``permutation`` is the image tuple of a gate that :meth:`from_permutation`
    built, with ``matrix[permutation[j], j] == 1``, and ``None`` for a matrix
    given to the constructor, which checks it for unitarity.
    """

    def __init__(self, matrix, dim1, dim2):
        dim1, dim2 = _check_count("dim1", dim1, 1), _check_count("dim2", dim2, 1)
        d = dim1 * dim2
        m = np.array(matrix, dtype=complex)  # a copy: the gate freezes it, not the caller's array
        if m.shape != (d, d):
            raise ValueError(f"gate shape {m.shape} incompatible with dims ({dim1}, {dim2})")
        with np.errstate(invalid="ignore"):
            unitary = np.max(np.abs(m @ dagger(m) - np.eye(d))) <= UNITARY_TOL
        if not unitary:
            raise ValueError("gate has non-finite entries or is not unitary to 1e-12")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.dim1 = dim1
        self.dim2 = dim2
        self.permutation = None

    @property
    def dim(self):
        return self.dim1 * self.dim2

    @classmethod
    def from_permutation(cls, dim1, dim2, images):
        """Basis-permutation gate sending ``|j>`` to ``|images[j]>``.  Its 0/1
        matrix is unitary by construction, so only the permutation is checked."""
        dim1, dim2 = _check_count("dim1", dim1, 1), _check_count("dim2", dim2, 1)
        gate = cls.__new__(cls)
        gate.permutation, gate.matrix = _permutation_matrix(images, dim1 * dim2)
        gate.matrix.setflags(write=False)
        gate.dim1, gate.dim2 = dim1, dim2
        return gate

    @classmethod
    def identity(cls, dim1, dim2):
        return cls.from_permutation(dim1, dim2, range(dim1 * dim2))

    def to_json(self):
        if self.permutation is not None:
            return {"dim1": self.dim1, "dim2": self.dim2, "perm": list(self.permutation)}
        obj = matrix_to_json(self.matrix)
        obj["dim1"] = self.dim1
        obj["dim2"] = self.dim2
        return obj

    @classmethod
    def from_json(cls, obj):
        try:
            dim1, dim2 = obj["dim1"], obj["dim2"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed gate object: {exc}") from exc
        if "perm" in obj:
            return cls.from_permutation(dim1, dim2, obj["perm"])
        return cls(matrix_from_json(obj), dim1, dim2)

    def __repr__(self):
        kind = "perm" if self.permutation is not None else "dense"
        return f"UnitaryGate(dims=({self.dim1}, {self.dim2}), {kind})"


def _spectrum_entropy(evals):
    """Entropy -sum(p ln p) in nats of a spectrum clipped to [0, 1], or the
    array of entropies of a stack ``(..., n)`` of spectra.

    An entry that is not positive adds a +0 term, which a sum in order leaves
    unchanged, so up to 7 eigenvalues the value is bit for bit the sum over
    the positive entries alone; numpy sums 8 or more terms pairwise.
    """
    p = np.clip(evals, 0.0, 1.0)
    pos = p > 0.0
    h = -np.where(pos, p * np.log(np.where(pos, p, 1.0)), 0.0).sum(axis=-1) + 0.0
    return float(h) if h.ndim == 0 else h


def von_neumann_entropy(state):
    """Entropy -Tr(rho ln rho) in nats; eigenvalues are clipped to [0, 1]."""
    evals = state.eigenvalues if isinstance(state, DensityOperator) else np.linalg.eigvalsh(state)
    return _spectrum_entropy(evals)


def trace_distance(a, b):
    """Half the trace norm of the difference, in [0, 1]; stacks give arrays."""
    ma = a.matrix if isinstance(a, DensityOperator) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityOperator) else np.asarray(b)
    return 0.5 * hermitian_trace_norm(ma - mb)


def from_bloch(v):
    """Qubit state (I + x X + y Y + z Z) / 2 of ``v = (x, y, z)``; requires ``|v| <= 1``."""
    x, y, z = v
    norm = float(np.sqrt(x**2 + y**2 + z**2))
    if norm > 1.0 + PSD_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return DensityOperator(0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]))
