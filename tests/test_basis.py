import numpy as np
import pytest

from ctckit.basis import HermitianBasis, hermitian_basis
from ctckit.linalg import dagger

from oracles import random_density


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_orthonormal_under_hilbert_schmidt(dim):
    b = hermitian_basis(dim)
    els = b.elements
    assert len(els) == dim * dim
    gram = np.array(
        [[np.trace(dagger(x) @ y).real for y in els] for x in els]
    )
    np.testing.assert_allclose(gram, np.eye(dim * dim), atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_elements_are_hermitian(dim):
    for el in hermitian_basis(dim).elements:
        np.testing.assert_allclose(el, dagger(el), atol=1e-15)


def test_first_element_is_normalized_identity():
    b = hermitian_basis(3)
    np.testing.assert_allclose(b.elements[0], np.eye(3) / np.sqrt(3), atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_traceless_part_is_traceless(dim):
    b = hermitian_basis(dim)
    assert b.n_traceless == dim * dim - 1
    for el in b.traceless:
        assert abs(np.trace(el)) < 1e-14


def test_qubit_traceless_are_scaled_paulis():
    b = hermitian_basis(2)
    x, y, z = b.traceless
    np.testing.assert_allclose(x * np.sqrt(2), [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(y * np.sqrt(2), [[0, -1j], [1j, 0]], atol=1e-15)
    np.testing.assert_allclose(z * np.sqrt(2), [[1, 0], [0, -1]], atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_coords_round_trip(dim):
    rng = np.random.default_rng(dim)
    b = hermitian_basis(dim)
    rho = random_density(rng, dim)
    x = b.traceless_coords(rho)
    assert x.shape == (dim * dim - 1,)
    np.testing.assert_allclose(b.from_traceless(x), rho, atol=1e-13)


def test_coords_are_real_for_hermitian_input():
    rng = np.random.default_rng(0)
    b = hermitian_basis(4)
    x = b.traceless_coords(random_density(rng, 4))
    assert x.dtype == np.float64


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2,), (5, 1, 1), (4, 3, 2)])
def test_coords_reject_a_matrix_that_is_not_dim_by_dim(shape):
    # A gather reads fixed entries, so a wrong shape would give wrong numbers,
    # not an error, unless it is checked.
    with pytest.raises(ValueError, match="expected a 2x2 matrix or stack"):
        hermitian_basis(2).traceless_coords(np.ones(shape, dtype=complex))


def test_from_traceless_honors_trace_argument():
    b = hermitian_basis(2)
    m = b.from_traceless(np.zeros(3), trace=0.0)
    np.testing.assert_allclose(m, np.zeros((2, 2)), atol=0)


@pytest.mark.parametrize("dim, message", [
    (0, "dim must be at least 1"), (True, "non-negative integer"), (2.5, "non-negative integer")],
    ids=["0", "true", "2.5"])
def test_dimension_follows_the_count_rule(dim, message):
    with pytest.raises(ValueError, match=message):
        HermitianBasis(dim)


def test_integral_float_dimension_reads_as_an_int():
    basis = HermitianBasis(3.0)
    assert type(basis.dim) is int and basis.elements.shape == (9, 3, 3)


def test_basis_cache_returns_same_object():
    assert hermitian_basis(3) is hermitian_basis(3)


@pytest.mark.parametrize("shape", [(5,), (4, 3)])
@pytest.mark.parametrize("trace", [1.0, 0.0])
def test_stacked_from_traceless_matches_one_row_at_a_time(shape, trace):
    rng = np.random.default_rng(6)
    b = hermitian_basis(3)
    x = rng.normal(size=shape + (b.n_traceless,))
    stack = b.from_traceless(x, trace=trace)
    assert stack.shape == shape + (3, 3)
    for idx in np.ndindex(*shape):
        assert np.array_equal(stack[idx], b.from_traceless(x[idx], trace=trace))


@pytest.mark.parametrize("shape", [(7,), (5, 7), (5, 9), (5, 4, 7), ()])
def test_from_traceless_rejects_a_wrong_last_axis(shape):
    with pytest.raises(ValueError, match="expected 8 coordinates"):
        hermitian_basis(3).from_traceless(np.zeros(shape))
