"""Validation and conversion behavior of the state / gate containers."""

import json

import numpy as np
import pytest

from ctckit.states import (
    BlochVector,
    DensityOperator,
    UnitaryGate,
    from_bloch,
    to_bloch,
    trace_distance,
    von_neumann_entropy,
)

from oracles import random_density


class TestDensityOperator:
    def test_accepts_valid_state(self):
        rho = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert rho.dim == 2

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


class TestUnitaryGate:
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

    def test_from_permutation(self):
        g = UnitaryGate.from_permutation(2, 2, (1, 0, 3, 2))
        assert g.permutation == (1, 0, 3, 2)
        np.testing.assert_array_equal(
            g.matrix @ np.array([1, 0, 0, 0]), np.array([0, 1, 0, 0])
        )

    def test_permutation_must_match_matrix(self):
        with pytest.raises(ValueError):
            UnitaryGate(np.eye(4), 2, 2, permutation=(1, 0, 3, 2))

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
    v = BlochVector(0.3, -0.2, 0.4)
    w = to_bloch(from_bloch(v))
    assert (w.x, w.y, w.z) == pytest.approx((0.3, -0.2, 0.4), abs=1e-14)
    assert v.norm == pytest.approx(np.sqrt(0.09 + 0.04 + 0.16))


def test_from_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        from_bloch((0.8, 0.8, 0.8))


def test_to_bloch_requires_qubit():
    with pytest.raises(ValueError):
        to_bloch(DensityOperator.maximally_mixed(3))
