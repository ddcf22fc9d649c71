import numpy as np
import pytest

from ctckit.linalg import (
    conjugate,
    dagger,
    hermitian_trace_norm,
    matrix_from_json,
    matrix_to_json,
    partial_trace_1,
    partial_trace_2,
)

from oracles import partial_trace_1_loops, partial_trace_2_loops, random_density


@pytest.mark.parametrize("dim1,dim2", [(2, 2), (4, 2), (3, 3), (2, 5)])
def test_partial_traces_match_loop_oracle(dim1, dim2):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(dim1 * dim2, dim1 * dim2)) + 1j * rng.normal(
        size=(dim1 * dim2, dim1 * dim2)
    )
    np.testing.assert_allclose(
        partial_trace_1(m, dim1, dim2), partial_trace_1_loops(m, dim1, dim2),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        partial_trace_2(m, dim1, dim2), partial_trace_2_loops(m, dim1, dim2),
        atol=1e-13,
    )


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(3)
    a = random_density(rng, 3)
    b = random_density(rng, 4)
    joint = np.kron(a, b)
    np.testing.assert_allclose(partial_trace_1(joint, 3, 4), b, atol=1e-13)
    np.testing.assert_allclose(partial_trace_2(joint, 3, 4), a, atol=1e-13)


def test_partial_traces_preserve_trace():
    rng = np.random.default_rng(11)
    m = random_density(rng, 6)
    assert np.trace(partial_trace_1(m, 2, 3)) == pytest.approx(1.0)
    assert np.trace(partial_trace_2(m, 2, 3)) == pytest.approx(1.0)


def test_dagger():
    m = np.array([[1, 2j], [3, 4]])
    np.testing.assert_array_equal(dagger(m), np.array([[1, 3], [-2j, 4]]))


def test_conjugate_plain():
    rng = np.random.default_rng(5)
    from oracles import random_unitary

    u = random_unitary(rng, 4)
    m = random_density(rng, 4)
    np.testing.assert_allclose(conjugate(u, m), u @ m @ dagger(u), atol=1e-13)


def test_conjugate_permutation_fast_path_matches_dense():
    rng = np.random.default_rng(9)
    perm = tuple(rng.permutation(6))
    u = np.zeros((6, 6))
    for col, row in enumerate(perm):
        u[row, col] = 1.0
    m = random_density(rng, 6)
    np.testing.assert_allclose(
        conjugate(u, m, permutation=perm), u @ m @ dagger(u), atol=1e-14
    )


def test_conjugate_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(13)
    from oracles import random_unitary

    u = random_unitary(rng, 4)
    perm = tuple(rng.permutation(4))
    p = np.zeros((4, 4))
    p[list(perm), range(4)] = 1.0
    stack = np.stack([random_density(rng, 4) for _ in range(3)])
    for gate, images in ((u, None), (p, perm)):
        batched = conjugate(gate, stack, permutation=images)
        for m, out in zip(stack, batched):
            np.testing.assert_array_equal(out, conjugate(gate, m, permutation=images))


def test_hermitian_trace_norm():
    # eigenvalues 3 and -1; trace norm 4
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert hermitian_trace_norm(m) == pytest.approx(4.0)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = matrix_from_json(matrix_to_json(m))
    np.testing.assert_allclose(back, m, atol=0)


@pytest.mark.parametrize("trace", [partial_trace_1, partial_trace_2])
@pytest.mark.parametrize("shape", [(4, 4), (6, 5), (6,)])
def test_partial_traces_reject_a_shape_off_the_dims(trace, shape):
    with pytest.raises(ValueError, match="incompatible with dims \\(2, 3\\)"):
        trace(np.zeros(shape), 2, 3)


@pytest.mark.parametrize("m", [np.zeros(3), np.zeros((2, 2, 2)), 1.0],
                         ids=["1-D", "3-D", "scalar"])
def test_matrix_to_json_needs_a_2d_array(m):
    with pytest.raises(ValueError, match="expected a 2-D array"):
        matrix_to_json(m)


def test_matrix_from_json_validates():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]})


@pytest.mark.parametrize("rows", [1.5, True, -1, "1", None],
                         ids=["1.5", "true", "-1", "str", "none"])
def test_matrix_shape_follows_the_count_rule(rows):
    # int() read 1.5 and True as 1, and "1" as 1.
    with pytest.raises(ValueError, match="malformed matrix object: rows must be a non-negative"):
        matrix_from_json({"rows": rows, "cols": 1, "re": [1], "im": [0]})
