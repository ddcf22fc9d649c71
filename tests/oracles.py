"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way — explicit
index sums and plain power iteration — so that agreement with the fast
einsum/affine implementations is meaningful evidence, not a tautology.
"""

import numpy as np

from ctckit.basis import hermitian_basis
from ctckit.linalg import dagger, partial_trace_1


def partial_trace_1_loops(m, dim1, dim2):
    """Trace out the first factor with explicit index loops."""
    m = np.asarray(m).reshape(dim1, dim2, dim1, dim2)
    out = np.zeros((dim2, dim2), dtype=complex)
    for i in range(dim2):
        for j in range(dim2):
            for a in range(dim1):
                out[i, j] += m[a, i, a, j]
    return out


def partial_trace_2_loops(m, dim1, dim2):
    """Trace out the second factor with explicit index loops."""
    m = np.asarray(m).reshape(dim1, dim2, dim1, dim2)
    out = np.zeros((dim1, dim1), dtype=complex)
    for i in range(dim1):
        for j in range(dim1):
            for a in range(dim2):
                out[i, j] += m[i, a, j, a]
    return out


def deutsch_map_direct(u_matrix, rho, sigma, dim1, dim2):
    """One round trip of the loop state: sigma -> Tr_1(U (rho ⊗ sigma) U+)."""
    joint = np.kron(rho, sigma)
    evolved = u_matrix @ joint @ u_matrix.conj().T
    return partial_trace_1_loops(evolved, dim1, dim2)


def cesaro_fixed_point(u_matrix, rho, dim1, dim2, epochs=200, iters_per_epoch=500,
                       tol=1e-11):
    """Fixed point by long-run averaging of the iterated loop map.

    Starts from the maximally mixed state and repeatedly applies the map,
    keeping a running (Cesàro) mean of the trajectory.  The mean of each
    epoch is fed back in as the next starting point, which converges even
    when the map itself only cycles.  Returns the first epoch mean whose
    image under the map is within ``tol`` in trace distance, or the last
    epoch mean if none qualifies.
    """
    sigma = np.eye(dim2, dtype=complex) / dim2
    best = sigma
    for _ in range(epochs):
        acc = np.zeros((dim2, dim2), dtype=complex)
        cur = sigma
        for _ in range(iters_per_epoch):
            cur = deutsch_map_direct(u_matrix, rho, cur, dim1, dim2)
            acc += cur
        mean = acc / iters_per_epoch
        mean = 0.5 * (mean + mean.conj().T)
        mean /= np.trace(mean).real
        best = mean
        gap = mean - deutsch_map_direct(u_matrix, rho, mean, dim1, dim2)
        if 0.5 * np.abs(np.linalg.eigvalsh(gap)).sum() < tol:
            return mean
        sigma = mean
    return best


def trace_distance_direct(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum()


def random_density(rng, dim):
    """Full-rank random density matrix (Ginibre normalized)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# Loop versions of the batched solver core.  They do the same floating-point
# operations in the same order as the batched code, one matrix at a time, so
# the two must agree bit for bit, not just to a tolerance.


def gell_mann_loop(dim):
    """Generalized Gell-Mann matrices built one matrix at a time."""
    out = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            out.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j / np.sqrt(2.0)
            m[k, j] = 1.0j / np.sqrt(2.0)
            out.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[range(l), range(l)] = 1.0
        m[l, l] = -float(l)
        out.append(m / np.sqrt(l * (l + 1)))
    return out


def traceless_coords_loop(basis, m):
    """``x_i = Tr(m B_i)``, one trace per traceless element."""
    return np.array([np.trace(m @ b).real for b in basis.traceless])


def from_traceless_loop(basis, x, trace=1.0):
    """``trace I / d + sum_i x_i B_i``, accumulated one term at a time."""
    m = (trace / basis.dim) * np.eye(basis.dim, dtype=complex)
    for xi, b in zip(np.asarray(x, dtype=float), basis.traceless):
        m = m + xi * b
    return m


def build_superoperator_loop(u, rho):
    """``(linear, offset)`` of the induced map, imaging one input at a time."""
    d1, d2 = u.dim1, u.dim2
    b2 = hermitian_basis(d2)
    n = b2.n_traceless

    def image_coords(m):
        joint = np.kron(rho.matrix, m)
        if u.permutation is not None:
            inv = np.argsort(np.asarray(u.permutation))
            w = joint[np.ix_(inv, inv)]
        else:
            w = u.matrix @ joint @ dagger(u.matrix)
        return traceless_coords_loop(b2, partial_trace_1(w, d1, d2))

    offset = image_coords(np.eye(d2, dtype=complex) / d2)
    linear = np.empty((n, n))
    for j, bj in enumerate(b2.traceless):
        linear[:, j] = image_coords(bj)
    return linear, offset
