"""Selection rules over a fixed-point set, and the induced overall channel."""

import numpy as np
import pytest

from ctckit.deutsch import fixed_point_set
from ctckit.reference import (
    mixed_first_qubit,
    mixed_second_qubit,
    reference_center,
    reference_gate,
)
from ctckit.selection import (
    SelectionRule,
    ctc_channel,
    max_entropy_state,
    min_entropy_state,
    sample_feasible,
    select,
)
from ctckit.states import (
    DensityOperator,
    UnitaryGate,
    trace_distance,
    von_neumann_entropy,
)

from oracles import random_density


def center_fps():
    return fixed_point_set(reference_gate(), reference_center())


def identity_fps():
    return fixed_point_set(UnitaryGate.identity(2, 2), DensityOperator.maximally_mixed(2))


class TestSelectionRule:
    def test_defaults(self):
        r = SelectionRule()
        assert r.kind == "max_entropy"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SelectionRule(kind="loudest")

    def test_rejects_bad_optimizer_settings(self):
        with pytest.raises(ValueError):
            SelectionRule(max_iters=0)

    @pytest.mark.parametrize("max_iters", [float("nan"), 2.5, True, "3"])
    def test_max_iters_follows_the_count_rule(self, max_iters):
        # NaN passes ``< 1`` and would run no iteration at all.
        with pytest.raises(ValueError, match="max_iters must be a non-negative integer"):
            SelectionRule(max_iters=max_iters)

    def test_integral_max_iters_reads_as_an_int(self):
        assert type(SelectionRule(max_iters=5.0).max_iters) is int

    @pytest.mark.parametrize("field, value", [("kind", "loudest"), ("max_iters", 0)])
    def test_fields_cannot_be_set_past_the_checks(self, field, value):
        # A set field would reach ``select`` unchecked: an unknown kind
        # minimised, and a zero budget ran no iteration.
        rule = SelectionRule()
        with pytest.raises(AttributeError):
            setattr(rule, field, value)
        assert select(center_fps(), rule).entropy == pytest.approx(np.log(2), abs=1e-10)


class TestMaxEntropy:
    def test_unique_set_returns_the_point(self):
        fps = fixed_point_set(reference_gate(), mixed_second_qubit(0.1))
        sel = max_entropy_state(fps)
        assert sel.iterations == 0 and sel.converged
        assert trace_distance(sel.sigma.matrix, np.eye(2) / 2) < 1e-10

    def test_z_axis_set_selects_midpoint(self):
        sel = max_entropy_state(center_fps())
        assert sel.converged
        assert trace_distance(sel.sigma.matrix, np.eye(2) / 2) < 1e-8
        assert sel.entropy == pytest.approx(np.log(2), abs=1e-10)

    def test_full_ball_selects_maximally_mixed(self):
        sel = max_entropy_state(identity_fps())
        assert trace_distance(sel.sigma.matrix, np.eye(2) / 2) < 1e-8

    def test_beats_random_members(self):
        fps = identity_fps()
        sel = max_entropy_state(fps)
        rng = np.random.default_rng(0)
        for _ in range(50):
            other = fps.state_at(sample_feasible(fps, rng))
            assert von_neumann_entropy(other.matrix) <= sel.entropy + 1e-9

    @pytest.mark.parametrize("start", [[], [0.0, 0.0], [[0.0]]], ids=["0", "2", "1x1"])
    def test_start_needs_one_coefficient_per_basis_direction(self, start):
        with pytest.raises(ValueError, match="start must have 1 coefficients"):
            max_entropy_state(center_fps(), start=start)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_start_must_be_finite(self, value):
        with pytest.raises(ValueError, match="start coefficients must be finite"):
            max_entropy_state(center_fps(), start=[value])

    def test_start_outside_the_cone_is_rejected(self):
        with pytest.raises(ValueError, match="start coefficients give a non-PSD state"):
            max_entropy_state(center_fps(), start=[5.0])

    def test_start_point_does_not_change_answer(self):
        fps = identity_fps()
        rng = np.random.default_rng(3)
        sols = [
            max_entropy_state(fps, start=sample_feasible(fps, rng)).sigma.matrix
            for _ in range(5)
        ]
        for s in sols[1:]:
            assert trace_distance(sols[0], s) < 1e-6


class TestMinEntropy:
    def test_z_axis_set_reaches_a_pole(self):
        sel = min_entropy_state(center_fps())
        assert sel.converged
        assert sel.entropy < 1e-10
        diag = np.sort(np.diag(sel.sigma.matrix).real)
        np.testing.assert_allclose(diag, [0.0, 1.0], atol=1e-9)

    def test_deterministic_across_runs(self):
        a = min_entropy_state(center_fps()).sigma.matrix
        b = min_entropy_state(center_fps()).sigma.matrix
        assert trace_distance(a, b) < 1e-12

    def test_full_ball_reaches_a_pure_state(self):
        sel = min_entropy_state(identity_fps())
        assert sel.entropy < 1e-8
        evals = np.linalg.eigvalsh(sel.sigma.matrix)
        np.testing.assert_allclose(np.sort(evals), [0.0, 1.0], atol=1e-8)


# Degenerate (k = 1) sets on which the optimizer takes every branch but the
# minimizer's stop at zero gradient.  A: the maximizer accepts 8 backtracking
# steps; the minimizer snaps.  B: the maximizer stops at zero gradient; the
# minimizer kicks at zero gradient, then again after a failed snap.  C: the
# maximizer stops on its five-step window; the minimizer snaps.
BRANCH_SETS = {
    "A": ((2, 3), (3, 5, 2, 0, 4, 1), DensityOperator.diagonal([0.9, 0.1])),
    "B": ((2, 3), (4, 5, 3, 0, 2, 1), DensityOperator.diagonal([0.9, 0.1])),
    "C": ((3, 3), (3, 8, 0, 4, 1, 2, 7, 6, 5), DensityOperator.pure([0, 0.1, np.sqrt(0.99)])),
}


@pytest.mark.parametrize("name,kind,entropy,iterations", [
    ("A", "max_entropy", 0.8688407743803273, 9),
    ("A", "min_entropy", 0.0, 2),
    ("B", "max_entropy", np.log(3), 1),
    ("B", "min_entropy", 0.0, 3),
    ("C", "max_entropy", 1.0986038713545372, 9),
    ("C", "min_entropy", 0.0, 2),
])
def test_optimizer_branches_keep_their_results(name, kind, entropy, iterations):
    dims, perm, rho = BRANCH_SETS[name]
    fps = fixed_point_set(UnitaryGate.from_permutation(*dims, perm), rho)
    assert fps.k == 1
    sel = select(fps, SelectionRule(kind))
    assert sel.entropy == pytest.approx(entropy, abs=1e-12)
    assert sel.iterations == iterations
    assert sel.converged


@pytest.mark.parametrize("name", sorted(BRANCH_SETS))
def test_wrappers_equal_select_under_the_default_rules(name):
    dims, perm, rho = BRANCH_SETS[name]
    fps = fixed_point_set(UnitaryGate.from_permutation(*dims, perm), rho)
    for sel, other in [(select(fps), max_entropy_state(fps)),
                       (select(fps, SelectionRule("min_entropy")), min_entropy_state(fps))]:
        assert sel.sigma.matrix.tobytes() == other.sigma.matrix.tobytes()
        assert (sel.entropy, sel.iterations, sel.converged, sel.gradient_norm) == (
            other.entropy, other.iterations, other.converged, other.gradient_norm)


def test_a_rule_sets_the_step_budget():
    dims, perm, rho = BRANCH_SETS["A"]
    fps = fixed_point_set(UnitaryGate.from_permutation(*dims, perm), rho)
    sel = select(fps, SelectionRule(max_iters=2))
    assert (sel.iterations, sel.converged) == (2, False)


class TestConstantIndex:
    def test_coordinates_pick_a_member(self):
        fps = center_fps()
        rule = SelectionRule(kind="constant_index", coordinates=(0.25,))
        sel = select(fps, rule)
        assert sel.converged and sel.iterations == 0
        expected = fps.state_at([0.25]).matrix
        assert trace_distance(sel.sigma.matrix, expected) < 1e-12

    def test_extra_coordinates_are_truncated(self):
        fps = center_fps()
        rule = SelectionRule(kind="constant_index", coordinates=(0.1, 9.9, 9.9))
        sel = select(fps, rule)
        assert trace_distance(sel.sigma.matrix, fps.state_at([0.1]).matrix) < 1e-12

    def test_infeasible_coordinates_raise(self):
        rule = SelectionRule(kind="constant_index", coordinates=(7.0,))
        with pytest.raises(ValueError):
            select(center_fps(), rule)


class TestSampleFeasible:
    def test_samples_are_members(self):
        fps = identity_fps()
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = sample_feasible(fps, rng)
            fps.state_at(t)  # raises if infeasible

    def test_unique_set_gives_empty_vector(self):
        fps = fixed_point_set(reference_gate(), mixed_second_qubit(0.2))
        assert sample_feasible(fps, np.random.default_rng(0)).size == 0


class TestCtcChannel:
    def test_identity_gate_returns_input(self):
        rng = np.random.default_rng(7)
        rho = DensityOperator(random_density(rng, 2))
        rho_hat, _ = ctc_channel(UnitaryGate.identity(2, 2), rho)
        assert trace_distance(rho_hat.matrix, rho.matrix) < 1e-10

    @pytest.mark.parametrize("eps,expected_11", [(0.1, 0.45), (0.01, 0.495)])
    def test_mixed_second_qubit_output(self, eps, expected_11):
        rho_hat, sel = ctc_channel(reference_gate(), mixed_second_qubit(eps))
        assert rho_hat.matrix[0, 0].real == pytest.approx(expected_11, abs=1e-10)
        assert sel.converged

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_mixed_first_qubit_output(self, eps):
        rho_hat, _ = ctc_channel(reference_gate(), mixed_first_qubit(eps))
        assert rho_hat.matrix[0, 0].real == pytest.approx(eps, abs=1e-10)

    def test_induced_evolution_is_nonlinear(self):
        """Outputs for the two golden families do not interpolate linearly:
        the half/half mixture of inputs maps far from the mixture of outputs."""
        u = reference_gate()
        eps = 0.1
        rho_a, rho_c = mixed_second_qubit(eps), mixed_first_qubit(eps)
        out_a, _ = ctc_channel(u, rho_a)
        out_c, _ = ctc_channel(u, rho_c)
        mix = DensityOperator(0.5 * (rho_a.matrix + rho_c.matrix))
        out_mix, _ = ctc_channel(u, mix)
        interpolated = 0.5 * (out_a.matrix + out_c.matrix)
        assert trace_distance(out_mix.matrix, interpolated) > 0.05
