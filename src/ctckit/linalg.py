"""Dense linear-algebra helpers for small bipartite systems.

Composite indices follow the row-major convention: basis state ``|i, a>`` of
``H1 (x) H2`` lives at flat index ``i * dim2 + a``, matching ``numpy.kron``.
"""

import numbers

import numpy as np

__all__ = [
    "dagger",
    "partial_trace_1",
    "partial_trace_2",
    "conjugate",
    "hermitian_trace_norm",
    "matrix_to_json",
    "matrix_from_json",
]


def dagger(m):
    """Conjugate transpose."""
    return np.conjugate(np.transpose(m))


def _as_quad(m, dim1, dim2):
    m = np.asarray(m)
    if m.shape[-2:] != (dim1 * dim2, dim1 * dim2):
        raise ValueError(f"matrix shape {m.shape} incompatible with dims ({dim1}, {dim2})")
    return m.reshape(m.shape[:-2] + (dim1, dim2, dim1, dim2))


def partial_trace_1(m, dim1, dim2):
    """Trace out the first factor of a ``(dim1*dim2) x (dim1*dim2)`` matrix or stack."""
    return np.einsum("...aiaj->...ij", _as_quad(m, dim1, dim2))


def partial_trace_2(m, dim1, dim2):
    """Trace out the second factor of a ``(dim1*dim2) x (dim1*dim2)`` matrix or stack."""
    return np.einsum("...iaja->...ij", _as_quad(m, dim1, dim2))


def conjugate(u, m, permutation=None):
    """Return ``u @ m @ u^dagger``, for one matrix or a stack ``(..., n, n)``.

    When ``u`` is known to be a permutation matrix, pass its image list
    (``u[permutation[j], j] == 1``) to use index shuffling instead of two
    matrix products.
    """
    if permutation is not None:
        rows, cols = _inverse_permutation(permutation)
        return np.asarray(m)[..., rows, cols]
    return u @ m @ dagger(u)


def _inverse_permutation(images):
    """Gather indices ``(inv[:, None], inv)`` of the inverse of ``images``."""
    inv = np.argsort(np.asarray(images))
    return inv[:, None], inv


def _trace_1_gather(images, dim2):
    """Index pairs ``(i, j)`` and ``(a, b)`` of shape ``(dim1, dim2, dim2)``:
    entry ``(x, y)`` of ``Tr_1(P (r (x) s) P^T)``, for the permutation matrix
    ``P`` of ``images``, is the sum over ``c`` of ``r[i, j] * s[a, b]`` at
    ``[c, x, y]``."""
    inv = _inverse_permutation(images)[1].reshape(-1, dim2)  # ``P X P^T`` reads row ``inv``
    i, a = np.divmod(inv, dim2)
    return (i[:, :, None], i[:, None, :]), (a[:, :, None], a[:, None, :])


def hermitian_trace_norm(m):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix, or
    the array of norms of a stack ``(..., n, n)``."""
    norms = abs(np.linalg.eigvalsh(m)).sum(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def _check_count(name, value, floor=0):
    """``value`` as an ``int``; raises unless it is an integer of at least ``floor``
    (a bool is not one).  An exact ``int`` skips the slower ``numbers.Real`` test."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Real)
                                   or not float(value).is_integer()) or not value >= 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    if value < floor:
        raise ValueError(f"{name} must be at least {floor}")
    return int(value)


def matrix_to_json(m):
    """Serialize a complex matrix as flat row-major real/imaginary parts."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def matrix_from_json(obj):
    """Inverse of :func:`matrix_to_json`, with shape/length validation."""
    try:
        rows, cols = _check_count("rows", obj["rows"]), _check_count("cols", obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(
            f"matrix entries have length {re.size}/{im.size}, expected {rows * cols}"
        )
    return (re + 1j * im).reshape(rows, cols)
