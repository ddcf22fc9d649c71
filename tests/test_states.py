"""Validation and conversion behavior of the state / gate containers."""

import json

import numpy as np
import pytest

from ctckit.states import (
    DensityOperator,
    UnitaryGate,
    from_bloch,
    trace_distance,
    von_neumann_entropy,
)

from oracles import random_density


class TestDensityOperator:
    def test_accepts_valid_state(self):
        rho = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert rho.dim == 2

    def test_repr_names_the_dimension(self):
        assert repr(DensityOperator.maximally_mixed(3)) == "DensityOperator(dim=3)"

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DensityOperator(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_tolerates_tiny_negative_eigenvalue(self):
        rho = DensityOperator(np.diag([1.0 + 1e-12, -1e-12]))
        assert rho.dim == 2

    def test_matrix_is_read_only(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_pure_rejects_the_zero_vector(self):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            DensityOperator.pure([0, 0])

    def test_pure_and_basis_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = DensityOperator.pure(psi)
        np.testing.assert_allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)
        e1 = DensityOperator.basis_state(4, 1)
        assert e1.matrix[1, 1] == 1.0 and np.trace(e1.matrix) == 1.0

    def test_product(self):
        a = DensityOperator.diagonal([0.25, 0.75])
        b = DensityOperator.basis_state(2, 0)
        joint = DensityOperator.product(a, b)
        assert joint.dim == 4
        np.testing.assert_allclose(np.diag(joint.matrix).real, [0.25, 0, 0.75, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(np.diag([bad, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(np.array([[0.5, bad], [bad, 0.5]]))

    def test_json_round_trip(self):
        rng = np.random.default_rng(1)
        rho = DensityOperator(random_density(rng, 3))
        back = DensityOperator.from_json(json.loads(json.dumps(rho.to_json())))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)


class TestFromStack:
    """A stack is validated as one, with the constructor's checks and texts."""

    def test_matrices_equal_the_constructor(self):
        rng = np.random.default_rng(2)
        stack = np.stack([random_density(rng, 3) for _ in range(4)])
        states = DensityOperator.from_stack(stack)
        assert len(states) == 4
        for m, state in zip(stack, states):
            assert np.array_equal(state.matrix, DensityOperator(m).matrix)
            with pytest.raises(ValueError):
                state.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 0.5], [0.0, 0.5]]),
        np.diag([np.nan, np.nan]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.eye(2),
        np.diag([1.5, -0.5]),
    ], ids=["non_hermitian", "nan", "inf", "trace", "negative_eigenvalue"])
    def test_one_bad_matrix_fails_the_stack(self, bad):
        # Runs under the suite's error::RuntimeWarning filter, so inf must
        # fail without a floating-point warning.
        good = np.diag([0.25, 0.75])
        with pytest.raises(ValueError) as single:
            DensityOperator(bad)
        with pytest.raises(ValueError) as stacked:
            DensityOperator.from_stack(np.stack([good, bad, good]))
        assert str(stacked.value) == str(single.value)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError) as single:
            DensityOperator(np.zeros((2, 3)))
        with pytest.raises(ValueError) as stacked:
            DensityOperator.from_stack(np.zeros((2, 2, 3)))
        assert str(stacked.value) == str(single.value)


class TestEigenvalues:
    """A state keeps the spectrum its validation computed, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_constructor_and_stack_keep_the_eigvalsh_spectrum(self, dim):
        rng = np.random.default_rng(10 + dim)
        # Full-rank states, then a pure and the maximally mixed state.
        stack = np.stack([random_density(rng, dim) for _ in range(4)]
                         + [np.diag(np.eye(dim)[-1]), np.eye(dim) / dim]).astype(complex)
        for state in [DensityOperator(m) for m in stack] + DensityOperator.from_stack(stack):
            assert np.array_equal(state.eigenvalues, np.linalg.eigvalsh(state.matrix))
            assert von_neumann_entropy(state) == von_neumann_entropy(state.matrix)
            with pytest.raises(ValueError):
                state.eigenvalues[0] = 1.0


class TestUnitaryGate:
    def test_repr_names_the_dims_and_kind(self):
        gate = UnitaryGate.from_permutation(2, 3, range(6))
        assert repr(gate) == "UnitaryGate(dims=(2, 3), perm)"
        assert repr(UnitaryGate(np.eye(4), 2, 2)) == "UnitaryGate(dims=(2, 2), dense)"

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.ones((2, 2)), 1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            UnitaryGate(np.full((4, 4), bad), 2, 2)
        with pytest.raises(ValueError, match="non-finite"):
            UnitaryGate(np.diag([1.0, 1.0, 1.0, bad]), 2, 2)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.eye(4), 3, 2)

    @pytest.mark.parametrize("dims", [(True, 4), (4, True), (0, 4), (2.5, 2), (float("nan"), 2),
                                      ("2", 2)],
                             ids=["true-4", "4-true", "0-4", "2.5-2", "nan-2", "string-2"])
    def test_dims_follow_the_count_rule(self, dims):
        # ``int()`` would read 2.5 as 2 and True as 1.
        with pytest.raises(ValueError, match="dim[12] must be"):
            UnitaryGate(np.eye(4), *dims)
        with pytest.raises(ValueError, match="dim[12] must be"):
            UnitaryGate.from_permutation(*dims, range(4))

    def test_keeps_a_read_only_copy_of_the_callers_matrix(self):
        m = np.eye(2, dtype=complex)
        g = UnitaryGate(m, 1, 2)
        assert m.flags.writeable and not g.matrix.flags.writeable
        m[0, 0] = -1.0
        assert g.matrix[0, 0] == 1.0

    def test_integral_float_dims_read_as_ints(self):
        g = UnitaryGate(np.eye(4), 2.0, 2)
        assert (g.dim1, g.dim2) == (2, 2) and type(g.dim1) is int
        assert UnitaryGate.from_permutation(2.0, np.int64(2), range(4)).dim1 == 2

    def test_from_json_rejects_a_fractional_dim(self):
        with pytest.raises(ValueError, match="dim1 must be a non-negative integer, got 2.7"):
            UnitaryGate.from_json({"dim1": 2.7, "dim2": 1, "perm": [0, 1]})
        with pytest.raises(ValueError, match="dim1 must be a non-negative integer, got 2.7"):
            UnitaryGate.from_json({"dim1": 2.7, "dim2": 1, "rows": 2, "cols": 2,
                                   "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]})

    @pytest.mark.parametrize("perm, message", [
        ([0.5, 1], "permutation entry must be a non-negative integer, got 0.5"),
        ([0, 5], r"\[0, 5\] is not a permutation of 0..1"),
        ("ab", "permutation entry must be a non-negative integer, got a"),
        ([True, 0], "permutation entry must be a non-negative integer, got True"),
        ([0, 0], r"\[0, 0\] is not a permutation of 0..1"),
        ([0, 1, 2], r"\[0, 1, 2\] is not a permutation of 0..1"),
    ], ids=["fraction", "range", "string", "bool", "repeat", "length"])
    def test_permutations_are_checked_before_any_matrix(self, perm, message):
        # Used as matrix indices unchecked, these raise IndexError or read 0.5 as 0.
        with pytest.raises(ValueError, match=message):
            UnitaryGate.from_permutation(2, 1, perm)
        with pytest.raises(ValueError, match=message):
            UnitaryGate.from_permutation(1, 2, perm)

    def test_integral_permutation_entries_are_stored_as_ints(self):
        g = UnitaryGate.from_permutation(2, 1, [1.0, np.int64(0)])
        np.testing.assert_array_equal(g.matrix, np.eye(2)[::-1])
        assert g.permutation == (1, 0) and all(type(j) is int for j in g.permutation)

    def test_from_permutation(self):
        g = UnitaryGate.from_permutation(2, 2, (1, 0, 3, 2))
        assert g.permutation == (1, 0, 3, 2)
        np.testing.assert_array_equal(
            g.matrix @ np.array([1, 0, 0, 0]), np.array([0, 1, 0, 0])
        )

    def test_from_permutation_builds_its_matrix_once(self, monkeypatch):
        from ctckit import states

        calls = []
        original = states._permutation_matrix

        def counted(images, d):
            calls.append(d)
            return original(images, d)

        monkeypatch.setattr(states, "_permutation_matrix", counted)
        g = UnitaryGate.from_permutation(3, 3, (6, 3, 4, 8, 1, 7, 0, 2, 5))
        assert calls == [9]
        assert g.permutation == (6, 3, 4, 8, 1, 7, 0, 2, 5)
        assert all(type(j) is int for j in g.permutation)
        np.testing.assert_array_equal(g.matrix, original(g.permutation, 9)[1])
        assert g.matrix.flags.writeable is False

    def test_from_permutation_skips_the_unitarity_product(self, monkeypatch):
        # A checked permutation's 0/1 matrix is unitary by construction; a
        # matrix from outside is still checked.
        from ctckit import states

        products = []
        original = states.dagger

        def counted(m):
            products.append(m.shape)
            return original(m)

        monkeypatch.setattr(states, "dagger", counted)
        g = UnitaryGate.from_permutation(3, 3, (6, 3, 4, 8, 1, 7, 0, 2, 5))
        assert products == []
        assert (g.dim1, g.dim2) == (3, 3) and all(type(d) is int for d in (g.dim1, g.dim2))
        UnitaryGate(g.matrix, 3, 3)
        assert products == [(9, 9)]

    @pytest.mark.parametrize("obj", [{"dim1": 2, "perm": [0, 1]}, [2, 1], None],
                             ids=["no-dim2", "list", "null"])
    def test_from_json_needs_both_dims(self, obj):
        with pytest.raises(ValueError, match="malformed gate object"):
            UnitaryGate.from_json(obj)

    def test_json_round_trip_permutation_form(self):
        g = UnitaryGate.from_permutation(4, 2, (4, 1, 3, 2, 0, 6, 5, 7))
        obj = g.to_json()
        assert obj["perm"] == [4, 1, 3, 2, 0, 6, 5, 7]
        back = UnitaryGate.from_json(obj)
        assert back.permutation == g.permutation

    def test_json_round_trip_dense_form(self):
        theta = 0.3
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        g = UnitaryGate(np.kron(np.eye(2), u), 2, 2)
        back = UnitaryGate.from_json(g.to_json())
        np.testing.assert_allclose(back.matrix, g.matrix, atol=1e-15)
        assert back.permutation is None


def test_entropy_known_values():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2), abs=1e-14)
    assert von_neumann_entropy(np.eye(3) / 3) == pytest.approx(np.log(3), abs=1e-14)


def test_entropy_is_plus_zero_for_pure_states():
    # -0.0 in reports confuses downstream diffing; normalize the sign.
    s = von_neumann_entropy(np.diag([1.0, 0.0]))
    assert np.copysign(1.0, s) == 1.0


def test_entropy_clips_rounding_noise():
    s = von_neumann_entropy(np.diag([1.0 + 5e-15, -5e-15]))
    assert s == 0.0


def test_trace_distance():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, np.eye(2) / 2) == pytest.approx(0.5)


def test_bloch_round_trip():
    # Tr(rho P) recovers each coordinate, for the Pauli matrices P = X, Y, Z.
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    m = from_bloch((0.3, -0.2, 0.4)).matrix
    coords = [np.trace(m @ p) for p in paulis]
    assert coords == pytest.approx([0.3, -0.2, 0.4], abs=1e-14)


def test_from_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        from_bloch((0.8, 0.8, 0.8))
