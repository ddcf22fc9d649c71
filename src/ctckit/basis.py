"""Orthonormal Hermitian operator bases (generalized Gell-Mann matrices).

For dimension ``d`` the basis has ``d**2`` elements: the normalized identity
``I/sqrt(d)`` first, then ``d**2 - 1`` traceless matrices ordered as symmetric
pairs, antisymmetric pairs, then diagonal matrices. Orthonormality is in the
Hilbert-Schmidt inner product ``<A, B> = Tr(A B)``, so for a qubit the
traceless elements are ``X/sqrt(2), Y/sqrt(2), Z/sqrt(2)``.

Hermitian operators then correspond to real coordinate vectors, and any
trace-preserving linear map becomes a real affine map on the traceless block.

Each column of an element has at most one nonzero entry, so each diagonal
entry of ``m @ B_i`` is one product ``m[r, c] * B_i[c, r]``, and
:meth:`HermitianBasis.traceless_coords` gathers those entries of ``m`` and
multiplies them by the element's, in place of the matrix product and its
trace.  A column with no nonzero entry gathers any entry times 0, as the
product does.  It adds the ``dim`` complex products in order, as ``np.trace``
adds the complex diagonal, and only then takes the real part: adding real
parts would change the sum order for ``dim >= 4``.  The gather is an
``np.take`` on the flattened matrix, so the products are in C order and each
sum runs over contiguous entries; a fancy-indexed view would not be, and for
``dim >= 4`` its reduction adds in another order.
"""

from functools import lru_cache

import numpy as np

from .states import _check_count

__all__ = ["HermitianBasis", "hermitian_basis"]


def _gell_mann_elements(dim):
    out = np.zeros((dim * dim, dim, dim), dtype=complex)
    out[0] = np.eye(dim, dtype=complex) / np.sqrt(dim)
    pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
    for i, (j, k) in enumerate(pairs, start=1):
        out[i, j, k] = out[i, k, j] = 1.0 / np.sqrt(2.0)
        out[i + len(pairs), j, k] = -1.0j / np.sqrt(2.0)
        out[i + len(pairs), k, j] = 1.0j / np.sqrt(2.0)
    for l in range(1, dim):
        diag = np.ones(l + 1, dtype=complex)
        diag[l] = -float(l)
        out[2 * len(pairs) + l, range(l + 1), range(l + 1)] = diag / np.sqrt(l * (l + 1))
    out.setflags(write=False)
    return out


class HermitianBasis:
    """Coordinate charts between Hermitian matrices and real vectors."""

    def __init__(self, dim):
        self.dim = dim = _check_count("dim", dim, 1)
        # Read-only stack ``(dim**2, dim, dim)``; ``traceless`` is its tail.
        self.elements = _gell_mann_elements(dim)
        self.traceless = self.elements[1:]
        self._identity = np.eye(dim, dtype=complex)
        # Row of the one nonzero entry of each column of each traceless element,
        # 0 where the column is zero: flat indices ``r * dim + c`` into ``m`` and
        # the entries ``B_i[c, r]`` they meet, shape ``(n_traceless, dim)``.
        rows = np.argmax(self.traceless != 0, axis=-2)
        self._gather = np.arange(dim) * dim + rows
        self._entries = np.take_along_axis(self.traceless, rows[:, None, :], axis=-2)[:, 0, :]

    @property
    def n_traceless(self):
        return self.dim * self.dim - 1

    def traceless_coords(self, m):
        """Real coordinates ``x_i = Tr(m B_i)`` of a matrix or a stack ``(..., dim, dim)``,
        one gathered product per diagonal entry (see the module docstring)."""
        m = np.asarray(m)
        if m.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix or stack, got {m.shape}")
        flat = m.reshape(m.shape[:-2] + (self.dim * self.dim,))
        return (np.take(flat, self._gather, axis=-1) * self._entries).sum(axis=-1).real

    def from_traceless(self, x, trace=1.0):
        """Hermitian matrix with the given traceless coordinates and trace, or the
        stack ``(..., dim, dim)`` of a coordinate stack ``(..., n_traceless)``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n_traceless,):
            raise ValueError(f"expected {self.n_traceless} coordinates, got {x.shape}")
        terms = np.empty(x.shape[:-1] + (self.n_traceless + 1, self.dim, self.dim), dtype=complex)
        terms[..., 0, :, :] = (trace / self.dim) * self._identity
        np.multiply(x[..., None, None], self.traceless, out=terms[..., 1:, :, :])
        # The sum over the term axis adds in order, bit for bit ``m = m + x_i * B_i``.
        return terms.sum(axis=-3)


@lru_cache(maxsize=None)
def hermitian_basis(dim):
    """Cached basis instance for ``dim``."""
    return HermitianBasis(dim)
