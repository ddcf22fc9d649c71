"""Invariants every :class:`FixedPointSet` satisfies, whatever the solver does
inside: semantic checks that hold for any correct solve, not bit pins."""

import numpy as np
import pytest

from ctckit.basis import hermitian_basis
from ctckit.deutsch import RESIDUAL_TOL, SV_TOL, SolverDiagnostic, fixed_point_set, membership
from ctckit.states import PSD_TOL, DensityOperator, UnitaryGate

from oracles import random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DIMS = [(2, 2), (3, 2), (2, 3), (4, 2)]


@st.composite
def solves(draw):
    """``(gate, rho)``: a permutation or Haar-dense gate, and a vertex ``|v><v|``
    mixed by ``e`` toward another vertex or a Haar-random pure state, so that
    degenerate sets (k > 0) are drawn as well as unique ones."""
    dim1, dim2 = draw(st.sampled_from(DIMS))
    d = dim1 * dim2
    if draw(st.booleans()):
        gate = UnitaryGate.from_permutation(dim1, dim2, draw(st.permutations(range(d))))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        gate = UnitaryGate(random_unitary(rng, d), dim1, dim2)
    v = draw(st.integers(0, dim1 - 1))
    if draw(st.booleans()):
        other = np.eye(dim1)[draw(st.integers(0, dim1 - 1))]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        other = random_unitary(rng, dim1)[:, 0]
    e = draw(st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0]))
    vertex = np.zeros((dim1, dim1), dtype=complex)
    vertex[v, v] = 1.0
    return gate, DensityOperator((1.0 - e) * vertex + e * np.outer(other, other.conj()))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(solve=solves())
def test_every_fixed_point_set_satisfies_its_invariants(solve):
    gate, rho = solve
    try:
        fps = fixed_point_set(gate, rho)
    except SolverDiagnostic:
        hypothesis.reject()
    hypothesis.event(f"k {'> 0' if fps.k else '= 0'}, dims {gate.dim1, gate.dim2}")
    b2 = hermitian_basis(gate.dim2)
    gap, c = fps.affine_gap, fps.affine.offset
    x = b2.traceless_coords(fps.particular.matrix)

    # (M - I) x_p + c is T(sigma) - sigma in Hilbert-Schmidt coordinates; its
    # norm is at most the trace norm, twice the map residual the solve accepts.
    assert np.linalg.norm(gap @ x + c) <= 2 * RESIDUAL_TOL

    s = np.linalg.svd(gap, compute_uv=False)
    assert fps.k == int((s <= SV_TOL).sum()) == len(fps.basis)

    if fps.k:
        basis = np.stack(fps.basis)
        assert np.abs(basis - basis.conj().swapaxes(-1, -2)).max() <= 1e-12
        assert np.abs(np.trace(basis, axis1=-2, axis2=-1)).max() <= 1e-12
        gram = np.einsum("iab,jba->ij", basis, basis)
        assert np.abs(gram - np.eye(fps.k)).max() <= 1e-12
        null = gap @ b2.traceless_coords(basis).T
        assert np.linalg.norm(null, axis=0).max() <= SV_TOL + 1e-12

    assert np.linalg.eigvalsh(fps.particular.matrix).min() >= -PSD_TOL
    assert abs(np.trace(fps.particular.matrix) - 1.0) <= 1e-12
    assert membership(fps, fps.particular).ok
