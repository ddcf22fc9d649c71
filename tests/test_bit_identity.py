"""The batched solver core returns exactly the bits of its loop version.

The (3, 3) census has solves on a knife edge: ``sigma_min(M - I)`` is about
1e-6, so the fixed-point residual is about machine epsilon times 1e6, right
at ``RESIDUAL_TOL``.  A change of one ulp in the superoperator there flips
whether the solve raises ``SolverDiagnostic``, and so moves census verdicts
and jumps.  These tests therefore compare with ``np.array_equal`` and exact
float equality, never ``allclose``: the batched charts, the batched
superoperator and every output of ``fixed_point_set`` must equal what the
loop versions in ``oracles`` produce, on seeded permutation and Haar-random
dense gates.
"""

import numpy as np
import pytest

from ctckit import deutsch
from ctckit.basis import HermitianBasis, hermitian_basis
from ctckit.deutsch import AffineMapReal, build_superoperator, fixed_point_set
from ctckit.states import DensityOperator, UnitaryGate

from oracles import (
    build_superoperator_loop,
    from_traceless_loop,
    gell_mann_loop,
    random_density,
    random_unitary,
    traceless_coords_loop,
)

DIMS = [(2, 2), (4, 2), (2, 3), (3, 3), (2, 4), (3, 2)]
CASES_PER_DIMS = 24

# A (3, 3) input whose refined start misses the tolerance, so the solve runs
# the Cesaro loop (64 iterations).
CESARO_GATE = (3, 2, 8, 4, 1, 5, 6, 0, 7)
CESARO_RHO = np.diag([0.999, 0.0, 0.001]).astype(complex)


def _cases(dim1, dim2):
    """Seeded ``(gate, rho)`` pairs: permutation gates with full-rank, pure
    and mixed diagonal inputs, and dense Haar-random gates."""
    rng = np.random.default_rng(1000 * dim1 + dim2)
    d = dim1 * dim2
    out = []
    for i in range(CASES_PER_DIMS):
        if i % 4 == 3:
            gate = UnitaryGate(random_unitary(rng, d), dim1, dim2)
        else:
            gate = UnitaryGate.from_permutation(dim1, dim2, rng.permutation(d))
        if i % 4 == 1:
            rho = np.diag(np.eye(dim1)[rng.integers(dim1)])
        elif i % 4 == 2:
            rho = np.diag(rng.dirichlet(np.ones(dim1)))
        else:
            rho = random_density(rng, dim1)
        out.append((gate, DensityOperator(rho)))
    if (dim1, dim2) == (3, 3):
        out.append((UnitaryGate.from_permutation(3, 3, CESARO_GATE), DensityOperator(CESARO_RHO)))
    return out


def _assert_same_fixed_point_set(new, ref):
    np.testing.assert_array_equal(new.affine.linear, ref.affine.linear)
    np.testing.assert_array_equal(new.affine.offset, ref.affine.offset)
    np.testing.assert_array_equal(new.particular.matrix, ref.particular.matrix)
    assert new.k == ref.k
    assert len(new.basis) == len(ref.basis) == new.k
    for b_new, b_ref in zip(new.basis, ref.basis):
        np.testing.assert_array_equal(b_new, b_ref)
    assert new.residuals == ref.residuals
    assert new.warnings == ref.warnings


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_elements_match_loop(dim):
    elements = hermitian_basis(dim).elements
    assert elements.shape == (dim * dim, dim, dim)
    for el, ref in zip(elements, gell_mann_loop(dim)):
        assert np.array_equal(el, ref)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_charts_match_loops(dim):
    rng = np.random.default_rng(dim)
    b = hermitian_basis(dim)
    for _ in range(20):
        m = random_density(rng, dim)
        assert np.array_equal(b.traceless_coords(m), traceless_coords_loop(b, m))
        x = rng.normal(size=b.n_traceless)
        for trace in (1.0, 0.0):
            assert np.array_equal(b.from_traceless(x, trace=trace), from_traceless_loop(b, x, trace=trace))


def test_stacked_coords_match_one_at_a_time():
    rng = np.random.default_rng(4)
    b = hermitian_basis(3)
    stack = np.stack([random_density(rng, 3) for _ in range(5)])
    coords = b.traceless_coords(stack)
    assert coords.shape == (5, 8)
    for m, x in zip(stack, coords):
        assert np.array_equal(x, traceless_coords_loop(b, m))


@pytest.mark.parametrize("dim1,dim2", DIMS)
def test_superoperator_matches_loop(dim1, dim2):
    for gate, rho in _cases(dim1, dim2):
        aff = build_superoperator(gate, rho)
        linear, offset = build_superoperator_loop(gate, rho)
        assert np.array_equal(aff.linear, linear)
        assert np.array_equal(aff.offset, offset)


@pytest.mark.parametrize("dim1,dim2", DIMS)
def test_fixed_point_set_matches_loop_core(dim1, dim2, monkeypatch):
    cases = _cases(dim1, dim2)
    with monkeypatch.context() as mp:
        mp.setattr(deutsch, "build_superoperator",
                   lambda u, rho: AffineMapReal(*build_superoperator_loop(u, rho)))
        mp.setattr(HermitianBasis, "traceless_coords", traceless_coords_loop)
        mp.setattr(HermitianBasis, "from_traceless", from_traceless_loop)
        refs = [fixed_point_set(gate, rho) for gate, rho in cases]
    news = [fixed_point_set(gate, rho) for gate, rho in cases]
    for new, ref in zip(news, refs):
        _assert_same_fixed_point_set(new, ref)
    # The comparison covers null-space bases, not only unique fixed states.
    assert any(f.k > 0 for f in news)
    if (dim1, dim2) == (3, 3):
        assert news[-1].residuals["iterations"] > 0
