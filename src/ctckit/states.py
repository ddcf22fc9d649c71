"""Density operators, unitary gates, and single-qubit Bloch coordinates.

Validation tolerances are deliberately strict and uniform across the package:
Hermiticity and unit trace to 1e-12, positive semidefiniteness to -1e-10 on
the smallest eigenvalue.  The Hermiticity and unitarity checks are written so
that a NaN fails them, which rejects every non-finite entry before the other
checks run; the NaN that an infinite entry produces raises no floating-point
warning.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, hermitian_trace_norm, matrix_from_json, matrix_to_json

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DensityOperator",
    "UnitaryGate",
    "BlochVector",
    "von_neumann_entropy",
    "trace_distance",
    "to_bloch",
    "from_bloch",
]

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNITARY_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class DensityOperator:
    """A validated density matrix (Hermitian, PSD, unit trace)."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
            hermitian = np.max(np.abs(m - dagger(m))) <= HERM_TOL
        if not hermitian:
            raise ValueError("density matrix has non-finite entries or is not Hermitian to 1e-12")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} differs from 1 beyond 1e-12")
        m = 0.5 * (m + dagger(m))
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if lo < -PSD_TOL:
            raise ValueError(f"density matrix has eigenvalue {lo} below -1e-10")
        self.matrix = m
        self.matrix.setflags(write=False)

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

    ``permutation`` is optional metadata for gates that permute the
    computational basis: ``matrix[permutation[j], j] == 1``. When present the
    matrix must equal the induced 0/1 matrix exactly.
    """

    def __init__(self, matrix, dim1, dim2, permutation=None):
        m = np.asarray(matrix, dtype=complex)
        d = dim1 * dim2
        if dim1 < 1 or dim2 < 1:
            raise ValueError("factor dimensions must be positive")
        if m.shape != (d, d):
            raise ValueError(f"gate shape {m.shape} incompatible with dims ({dim1}, {dim2})")
        with np.errstate(invalid="ignore"):
            unitary = np.max(np.abs(m @ dagger(m) - np.eye(d))) <= UNITARY_TOL
        if not unitary:
            raise ValueError("gate has non-finite entries or is not unitary to 1e-12")
        if permutation is not None:
            p = [int(j) for j in permutation]
            if sorted(p) != list(range(d)):
                raise ValueError(f"{p} is not a permutation of 0..{d - 1}")
            expected = np.zeros((d, d), dtype=complex)
            expected[p, range(d)] = 1.0
            if not np.array_equal(m, expected):
                raise ValueError("matrix does not equal the stated permutation matrix")
            permutation = tuple(p)
        self.matrix = m
        self.matrix.setflags(write=False)
        self.dim1 = dim1
        self.dim2 = dim2
        self.permutation = permutation

    @property
    def dim(self):
        return self.dim1 * self.dim2

    @classmethod
    def from_permutation(cls, dim1, dim2, images):
        """Basis-permutation gate sending ``|j>`` to ``|images[j]>``."""
        d = dim1 * dim2
        m = np.zeros((d, d), dtype=complex)
        m[list(images), range(d)] = 1.0
        return cls(m, dim1, dim2, permutation=images)

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
            dim1, dim2 = int(obj["dim1"]), int(obj["dim2"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed gate object: {exc}") from exc
        if "perm" in obj:
            return cls.from_permutation(dim1, dim2, obj["perm"])
        return cls(matrix_from_json(obj), dim1, dim2)

    def __repr__(self):
        kind = "perm" if self.permutation is not None else "dense"
        return f"UnitaryGate(dims=({self.dim1}, {self.dim2}), {kind})"


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    @property
    def norm(self):
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


def _spectrum_entropy(evals):
    """Entropy -sum(p ln p) in nats of a spectrum clipped to [0, 1]."""
    p = np.clip(evals, 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz))) + 0.0


def von_neumann_entropy(state):
    """Entropy -Tr(rho ln rho) in nats; eigenvalues are clipped to [0, 1]."""
    m = state.matrix if isinstance(state, DensityOperator) else np.asarray(state)
    return _spectrum_entropy(np.linalg.eigvalsh(m))


def trace_distance(a, b):
    """Half the trace norm of the difference, in [0, 1]."""
    ma = a.matrix if isinstance(a, DensityOperator) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityOperator) else np.asarray(b)
    return 0.5 * hermitian_trace_norm(ma - mb)


def to_bloch(state):
    """Bloch coordinates (Tr(rho X), Tr(rho Y), Tr(rho Z)) of a qubit state."""
    if state.dim != 2:
        raise ValueError("Bloch coordinates are defined for qubits only")
    m = state.matrix
    return BlochVector(
        float(np.trace(m @ PAULI_X).real),
        float(np.trace(m @ PAULI_Y).real),
        float(np.trace(m @ PAULI_Z).real),
    )


def from_bloch(v):
    """Qubit state (I + x X + y Y + z Z) / 2; requires ``|v| <= 1``."""
    if not isinstance(v, BlochVector):
        v = BlochVector(*v)
    if v.norm > 1.0 + PSD_TOL:
        raise ValueError(f"Bloch vector norm {v.norm} exceeds 1")
    m = 0.5 * (np.eye(2, dtype=complex) + v.x * PAULI_X + v.y * PAULI_Y + v.z * PAULI_Z)
    return DensityOperator(m)
