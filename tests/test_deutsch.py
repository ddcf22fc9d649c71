"""Self-consistency solver: superoperator construction, fixed-point sets,
membership checks, and agreement with a slow iterate-and-average oracle."""

import re

import numpy as np
import pytest

from ctckit import deutsch
from ctckit.basis import HermitianBasis, hermitian_basis
from ctckit.deutsch import (
    build_superoperator,
    deutsch_map,
    evolve_out,
    fixed_point_set,
    membership,
)
from ctckit.reference import (
    mixed_first_qubit,
    mixed_second_qubit,
    reference_center,
    reference_gate,
)
from ctckit.states import DensityOperator, UnitaryGate, trace_distance

from oracles import (
    _canonical_sign_ref,
    cesaro_fixed_point,
    deutsch_map_direct,
    random_density,
    random_unitary,
    trace_distance_direct,
)


def _random_gate(rng, dim1, dim2):
    return UnitaryGate(random_unitary(rng, dim1 * dim2), dim1, dim2)


@pytest.mark.parametrize("dim1,dim2", [(2, 2), (4, 2), (2, 3)])
def test_superoperator_reproduces_direct_map(dim1, dim2):
    rng = np.random.default_rng(20)
    u = _random_gate(rng, dim1, dim2)
    rho = DensityOperator(random_density(rng, dim1))
    aff = build_superoperator(u, rho)
    b2 = hermitian_basis(dim2)
    for _ in range(10):
        sigma = random_density(rng, dim2)
        direct = deutsch_map_direct(u.matrix, rho.matrix, sigma, dim1, dim2)
        via_affine = b2.from_traceless(aff.apply(b2.traceless_coords(sigma)))
        np.testing.assert_allclose(via_affine, direct, atol=1e-12)


def test_deutsch_map_and_evolve_out_agree_with_loops():
    rng = np.random.default_rng(21)
    u = _random_gate(rng, 4, 2)
    rho = DensityOperator(random_density(rng, 4))
    sigma = DensityOperator(random_density(rng, 2))
    joint = np.kron(rho.matrix, sigma.matrix)
    evolved = u.matrix @ joint @ u.matrix.conj().T
    np.testing.assert_allclose(
        deutsch_map(u, rho, sigma).matrix,
        evolved.reshape(4, 2, 4, 2).trace(axis1=0, axis2=2),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        evolve_out(u, rho, sigma).matrix,
        evolved.reshape(4, 2, 4, 2).trace(axis1=1, axis2=3),
        atol=1e-13,
    )


class TestReferenceGateFixedPoints:
    """The bundled example: qubit pair plus loop qubit, gate a permutation."""

    def setup_method(self):
        self.u = reference_gate()

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 0.001])
    def test_mixed_second_qubit_pins_maximally_mixed(self, eps):
        fps = fixed_point_set(self.u, mixed_second_qubit(eps))
        assert fps.k == 0
        assert trace_distance(fps.particular.matrix, np.eye(2) / 2) < 1e-10

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 0.001])
    def test_mixed_first_qubit_pins_ground_state(self, eps):
        fps = fixed_point_set(self.u, mixed_first_qubit(eps))
        assert fps.k == 0
        assert trace_distance(fps.particular.matrix, np.diag([1.0, 0.0])) < 1e-10

    def test_center_leaves_z_axis_free(self):
        fps = fixed_point_set(self.u, reference_center())
        assert fps.k == 1
        (b,) = fps.basis
        # the free direction is the z axis, so off-diagonals vanish
        assert abs(b[0, 1]) < 1e-12 and abs(b[1, 0]) < 1e-12
        assert abs(np.trace(b)) < 1e-12

    def test_center_set_contains_both_poles(self):
        fps = fixed_point_set(self.u, reference_center())
        for diag in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.9, 0.1]):
            check = membership(fps, DensityOperator.diagonal(diag))
            assert check.ok, (diag, check)

    def test_center_set_excludes_off_axis_states(self):
        fps = fixed_point_set(self.u, reference_center())
        plus = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert not membership(fps, plus).ok


def test_identity_gate_fixes_everything():
    u = UnitaryGate.identity(2, 2)
    rho = DensityOperator.maximally_mixed(2)
    aff = build_superoperator(u, rho)
    np.testing.assert_allclose(aff.linear, np.eye(3), atol=1e-13)
    np.testing.assert_allclose(aff.offset, np.zeros(3), atol=1e-13)
    fps = fixed_point_set(u, rho)
    assert fps.k == 3
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert membership(fps, DensityOperator(random_density(rng, 2))).ok


def test_swap_gate_copies_system_onto_loop():
    u = UnitaryGate.from_permutation(2, 2, (0, 2, 1, 3))
    rng = np.random.default_rng(4)
    rho = DensityOperator(random_density(rng, 2))
    aff = build_superoperator(u, rho)
    np.testing.assert_allclose(aff.linear, np.zeros((3, 3)), atol=1e-13)
    fps = fixed_point_set(u, rho)
    assert fps.k == 0
    assert trace_distance(fps.particular.matrix, rho.matrix) < 1e-10


def test_accepted_origin_builds_no_cesaro_state(monkeypatch):
    # A unique fixed state is exact at the refined origin: one stacked check
    # (one from_traceless, and one eigvalsh for the spectrum and the map
    # residual), and the Cesaro fallback is never entered.
    u, rho = reference_gate(), mixed_first_qubit(0.1)
    counts = {"eigvalsh": 0, "from_traceless": 0}
    eigvalsh, from_traceless = np.linalg.eigvalsh, HermitianBasis.from_traceless

    def counted_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counted_from_traceless(*args, **kwargs):
        counts["from_traceless"] += 1
        return from_traceless(*args, **kwargs)

    def no_fallback(*args, **kwargs):
        raise AssertionError("the Cesaro fallback ran for an accepted origin")

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(HermitianBasis, "from_traceless", counted_from_traceless)
    monkeypatch.setattr(deutsch, "_cesaro_candidate", no_fallback)
    fps = fixed_point_set(u, rho)
    assert fps.k == 0 and fps.residuals["iterations"] == 0
    assert counts == {"eigvalsh": 1, "from_traceless": 1}


def test_fixed_point_is_actually_fixed():
    rng = np.random.default_rng(33)
    for dims in [(2, 2), (4, 2), (2, 3)]:
        u = _random_gate(rng, *dims)
        rho = DensityOperator(random_density(rng, dims[0]))
        fps = fixed_point_set(u, rho)
        moved = deutsch_map(u, rho, fps.particular)
        assert trace_distance(moved.matrix, fps.particular.matrix) < 1e-10
        assert fps.residuals["map_trace_distance"] <= 1e-10


def test_agrees_with_iterate_and_average_oracle():
    rng = np.random.default_rng(8)
    for _ in range(6):
        u = _random_gate(rng, 2, 2)
        rho = DensityOperator(random_density(rng, 2))
        fps = fixed_point_set(u, rho)
        if fps.k != 0:
            continue  # oracle converges to *some* fixed state; only unique ones compare
        oracle = cesaro_fixed_point(u.matrix, rho.matrix, 2, 2)
        assert trace_distance_direct(fps.particular.matrix, oracle) < 1e-8


def test_convexity_of_fixed_point_set():
    u = reference_gate()
    fps = fixed_point_set(u, reference_center())
    assert fps.k == 1
    a = fps.state_at([0.5])
    b = fps.state_at([-0.5])
    mix = DensityOperator(0.3 * a.matrix + 0.7 * b.matrix)
    assert membership(fps, mix).ok


def test_state_at_rejects_points_outside_cone():
    fps = fixed_point_set(reference_gate(), reference_center())
    with pytest.raises(ValueError):
        fps.state_at([5.0])


def test_state_at_needs_one_coefficient_per_basis_direction():
    fps = fixed_point_set(reference_gate(), reference_center())
    for coeffs in ([], [0.0, 0.0], [[0.0]]):
        with pytest.raises(ValueError, match="expected 1 coefficients"):
            fps.state_at(coeffs)


@pytest.mark.parametrize("family", [mixed_first_qubit, mixed_second_qubit])
@pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
def test_reference_mixing_weight_must_lie_in_the_unit_interval(family, eps):
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        family(eps)


def test_canonical_sign_matches_the_oracle_loop():
    # The first entry above 1e-12 in magnitude decides, as in the oracle's loop.
    rng = np.random.default_rng(11)
    rows = [np.array([1e-13, -0.6, 0.8]), np.array([-1e-12, 0.6, -0.8]),
            np.array([0.0, 0.0, -1.0]), *np.linalg.svd(rng.normal(size=(5, 5)))[2]]
    for v in rows:
        got = deutsch._canonical_sign(v)
        np.testing.assert_array_equal(got, _canonical_sign_ref(v))
        assert got[np.argmax(np.abs(v) > 1e-12)] > 0


def test_basis_sign_is_deterministic():
    u = reference_gate()
    rho = reference_center()
    b1 = fixed_point_set(u, rho).basis[0]
    b2 = fixed_point_set(u, rho).basis[0]
    np.testing.assert_array_equal(b1, b2)


def test_dim_mismatch_raises():
    with pytest.raises(ValueError):
        build_superoperator(reference_gate(), DensityOperator.maximally_mixed(2))
    fps = fixed_point_set(reference_gate(), reference_center())
    with pytest.raises(ValueError):
        membership(fps, DensityOperator.maximally_mixed(3))


def test_trivial_loop_has_the_general_shape():
    # dim2 = 1: the traceless charts are empty, and the general solve gives
    # the one state [[1]] with the residual keys of any other set.
    u = UnitaryGate.from_permutation(3, 1, (2, 0, 1))
    rho = DensityOperator(random_density(np.random.default_rng(5), 3))
    fps = fixed_point_set(u, rho)
    assert fps.k == 0 and fps.basis == []
    assert np.array_equal(fps.particular.matrix, np.eye(1))
    assert fps.residuals == {"map_trace_distance": 0.0, "affine_norm": 0.0,
                             "min_eigenvalue": 1.0, "iterations": 0}
    general = fixed_point_set(reference_gate(), reference_center())
    assert fps.residuals.keys() == general.residuals.keys()
    check = membership(fps, DensityOperator(np.eye(1)))
    assert (check.ok, check.affine_residual, check.map_residual) == (True, 0.0, 0.0)



def test_gray_zone_singular_values_are_reported():
    # The ``vertex2:mix0`` probe state at eps = 1e-4 on a (3, 3) census gate:
    # sigma_min(M - I) is about 0.87 eps**2, within a decade of SV_TOL.
    gate = UnitaryGate.from_permutation(3, 3, [6, 3, 4, 8, 1, 7, 0, 2, 5])
    fps = fixed_point_set(gate, DensityOperator(np.diag([1e-4, 0.0, 1.0 - 1e-4])))
    assert fps.k == 0 and len(fps.warnings) == 1
    assert re.match(r"^singular values \[8\.66\d*e-09\] lie within a decade "
                    r"of the cutoff 1e-09$", fps.warnings[0])
    assert fps.to_json()["warnings"] == fps.warnings


def test_accepted_origin_is_held_to_residual_tol():
    # The refined origin meets the solver's inner thresholds, so no Cesaro
    # state is built; its rounding-level residual still exceeds a zero bound.
    rng = np.random.default_rng(0)
    gate, rho = _random_gate(rng, 2, 2), DensityOperator(random_density(rng, 2))
    with pytest.raises(deutsch.SolverDiagnostic,
                       match=r"^fixed-point residual \S+ exceeds 0\.0$") as raised:
        fixed_point_set(gate, rho, residual_tol=0.0)
    residual = float(str(raised.value).split()[2])
    assert 0.0 < residual < 1e-15
    fps = fixed_point_set(gate, rho, residual_tol=1e-15)
    assert fps.residuals["iterations"] == 0
    assert fps.residuals["map_trace_distance"] == pytest.approx(residual, rel=1e-3)


def test_residual_tol_must_not_be_nan():
    rng = np.random.default_rng(0)
    gate, rho = _random_gate(rng, 2, 2), DensityOperator(random_density(rng, 2))
    with pytest.raises(ValueError, match=r"^residual_tol must not be NaN$"):
        fixed_point_set(gate, rho, residual_tol=float("nan"))
