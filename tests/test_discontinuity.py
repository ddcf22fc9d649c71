"""Probe paths, jump analysis, and gate verdicts.

The verdict ladder is continuous_witnessed_none < ephemeral < physical:
"ephemeral" means the pinned loop state jumps between the two directional
limits but the visible output does not; "physical" means the output jumps
too.  "continuous_witnessed_none" is deliberately not a continuity proof —
it only says no probed path witnessed a jump.
"""

import numpy as np
import pytest

from ctckit import discontinuity
from ctckit.deutsch import SolverDiagnostic
from ctckit.discontinuity import (
    DEFAULT_EPSILONS,
    PathFamily,
    ProbePath,
    classify,
    generate_probe_families,
    probe,
    witness_csv_rows,
)
from ctckit.reference import (
    mixed_first_qubit,
    mixed_second_qubit,
    reference_center,
    reference_gate,
)
from ctckit.selection import SelectionRule
from ctckit.states import DensityOperator, UnitaryGate, trace_distance


def paper_path(epsilons=(0.2, 0.1, 0.05, 0.01)):
    return ProbePath(
        center=reference_center(),
        direction_a=[(e, mixed_second_qubit(e)) for e in epsilons],
        direction_b=[(e, mixed_first_qubit(e)) for e in epsilons],
        label="golden",
    )


class TestProbePath:
    def test_rejects_increasing_eps(self):
        with pytest.raises(ValueError):
            ProbePath(
                center=reference_center(),
                direction_a=[(0.1, mixed_second_qubit(0.1)), (0.2, mixed_second_qubit(0.2))],
                direction_b=[(0.1, mixed_first_qubit(0.1))],
            )

    def test_rejects_non_positive_eps(self):
        with pytest.raises(ValueError):
            ProbePath(
                center=reference_center(),
                direction_a=[(0.0, DensityOperator.maximally_mixed(4))],
                direction_b=[(0.1, mixed_first_qubit(0.1))],
            )

    def test_rejects_paths_that_wander_from_center(self):
        # distance to center must not increase as eps shrinks
        with pytest.raises(ValueError):
            ProbePath(
                center=reference_center(),
                direction_a=[(0.2, mixed_second_qubit(0.1)), (0.1, mixed_second_qubit(0.3))],
                direction_b=[(0.1, mixed_first_qubit(0.1))],
            )

    def test_rejects_empty_direction(self):
        with pytest.raises(ValueError):
            ProbePath(center=reference_center(), direction_a=[], direction_b=[])


def test_family_materialize_sorts_and_dedupes():
    fam = PathFamily(
        center=reference_center(),
        family_a=mixed_second_qubit,
        family_b=mixed_first_qubit,
        label="f",
    )
    path = fam.materialize([0.01, 0.2, 0.2, 0.1])
    assert isinstance(path, ProbePath)
    assert [e for e, _ in path.direction_a] == [0.2, 0.1, 0.01]


class TestProbe:
    def test_golden_path_records(self):
        result = probe(reference_gate(), paper_path())
        assert result.center_fps.k == 1
        rows = result.pairs()
        assert len(rows) == 4
        for eps, ra, rb in rows:
            assert ra.k == 0 and rb.k == 0
            assert trace_distance(ra.sigma.matrix, np.eye(2) / 2) < 1e-9
            assert trace_distance(rb.sigma.matrix, np.diag([1.0, 0.0])) < 1e-9
            assert ra.entropy == pytest.approx(np.log(2), abs=1e-9)
            assert rb.entropy == pytest.approx(0.0, abs=1e-9)

    def test_records_cover_both_directions_per_eps(self):
        result = probe(reference_gate(), paper_path((0.3, 0.2)))
        assert len(result.records) == 4
        assert {r.direction for r in result.records} == {"a", "b"}


def failing_at(target):
    """``fixed_point_set`` that raises ``SolverDiagnostic`` for one input state."""
    solve = discontinuity.fixed_point_set

    def fake(u, rho, **kwargs):
        if np.allclose(rho.matrix, target, rtol=0.0, atol=1e-15):
            raise SolverDiagnostic("injected failure")
        return solve(u, rho, **kwargs)

    return fake


class TestSolverDiagnostic:
    """A failing solve is recorded on its probe point, not raised or dropped."""

    def test_probe_record_carries_the_error(self, monkeypatch):
        path = paper_path()
        finest_eps, finest_state = path.direction_a[-1]
        monkeypatch.setattr(discontinuity, "fixed_point_set", failing_at(finest_state.matrix))
        result = probe(reference_gate(), path)
        failed = [r for r in result.records if r.error is not None]
        assert [(r.direction, r.epsilon) for r in failed] == [("a", finest_eps)]
        assert failed[0].error == "injected failure"
        assert failed[0].k is None and failed[0].sigma is None

    def test_failing_finest_point_leaves_no_clean_tail(self, monkeypatch):
        path = paper_path()
        monkeypatch.setattr(discontinuity, "fixed_point_set",
                            failing_at(path.direction_a[-1][1].matrix))
        c = classify(reference_gate(), paths=[path])
        (analysis,) = c.witness["paths"]
        assert analysis["tail_length"] == 0
        assert analysis["rows"][-1]["sigma_jump_running"] is None
        assert any("no qualifying tail" in n for n in analysis["notes"])
        # Without the failure this path witnesses a physical jump.
        assert c.verdict == "continuous_witnessed_none"


class TestGenerateFamilies:
    def test_paper_example_single_family(self):
        fams = generate_probe_families(reference_gate(), "paper_example")
        assert len(fams) == 1 and fams[0].label == "reference"

    def test_paper_example_needs_the_reference_shape(self):
        with pytest.raises(ValueError):
            generate_probe_families(UnitaryGate.identity(2, 2), "paper_example")

    def test_vertex_pairs_count_and_labels(self):
        fams = generate_probe_families(reference_gate(), "vertex_pairs")
        # 4 vertices, 6 directions each (3 mixes, 3 superpositions) -> C(6,2) pairs
        assert len(fams) == 4 * 15
        assert len({f.label for f in fams}) == len(fams)
        assert all(f.label.startswith("vertex") for f in fams)

    def test_random_seeded_is_deterministic(self):
        a = generate_probe_families(reference_gate(), "random_seeded", seed=5)
        b = generate_probe_families(reference_gate(), "random_seeded", seed=5)
        assert len(a) == 4
        for fa, fb in zip(a, b):
            assert trace_distance(fa.center.matrix, fb.center.matrix) < 1e-15

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            generate_probe_families(reference_gate(), "exhaustive")

    def test_generate_paths_materializes(self):
        fams = generate_probe_families(reference_gate(), "paper_example")
        paths = [f.materialize((0.2, 0.1)) for f in fams]
        assert isinstance(paths[0], ProbePath)
        assert [e for e, _ in paths[0].direction_a] == [0.2, 0.1]


class TestClassify:
    def test_reference_gate_is_physical(self):
        cls = classify(reference_gate(), strategy="paper_example")
        assert cls.verdict == "physical"
        assert cls.sigma_jump > 0.45
        assert cls.rho_hat_jump > 0.45

    def test_identity_gate_is_continuous(self):
        cls = classify(UnitaryGate.identity(4, 2), strategy="vertex_pairs")
        assert cls.verdict == "continuous_witnessed_none"
        assert cls.sigma_jump < 0.1

    def test_swap_exchange_gate_is_continuous(self):
        # full exchange of the two qubits: loop state tracks rho continuously
        u = UnitaryGate.from_permutation(2, 2, (0, 2, 1, 3))
        cls = classify(u, strategy="vertex_pairs")
        assert cls.verdict == "continuous_witnessed_none"

    @pytest.mark.parametrize("gate", [reference_gate(), UnitaryGate.identity(3, 3)],
                             ids=["4x2", "3x3"])
    def test_each_center_and_direction_point_is_solved_once(self, gate, monkeypatch):
        # Paths of a vertex share its center and its 2(d1 - 1) directions.
        solve = discontinuity.fixed_point_set
        calls = []

        def counted(u, rho):
            calls.append(rho)
            return solve(u, rho)

        monkeypatch.setattr(discontinuity, "fixed_point_set", counted)
        classify(gate, "vertex_pairs", max_refinements=0)
        d1 = gate.dim1
        assert len(calls) == d1 * (1 + 2 * (d1 - 1) * len(DEFAULT_EPSILONS))

    @pytest.mark.parametrize("refinements", [0, 1, 2])
    def test_near_threshold_path_refines_its_grid(self, refinements):
        # At jump_tol=0.3 the reference gate's jumps of about 0.5 lie within a
        # factor of two of the threshold, so each refinement adds finest / 10.
        cls = classify(reference_gate(), strategy="paper_example", jump_tol=0.3,
                       max_refinements=refinements)
        (path,) = cls.witness["paths"]
        grid = list(DEFAULT_EPSILONS) + [1e-4, 1e-5][:refinements]
        assert [row["epsilon"] for row in path["rows"]] == pytest.approx(grid)
        assert cls.witness["refinements_used"] == refinements
        assert cls.witness["epsilons"] == list(DEFAULT_EPSILONS)
        assert cls.verdict == "physical"

    def test_explicit_paths_mode(self):
        cls = classify(reference_gate(), paths=[paper_path()])
        assert cls.verdict == "physical"
        assert cls.witness["strategy"] == "user_paths"
        assert cls.witness["refinements_used"] == 0

    def test_verdict_independent_of_selection_rule_on_pinned_paths(self):
        for kind in ("max_entropy", "min_entropy"):
            cls = classify(
                reference_gate(),
                strategy="paper_example",
                rule=SelectionRule(kind=kind),
            )
            assert cls.verdict == "physical"

    def test_deterministic_witness_digest(self):
        a = classify(reference_gate(), strategy="paper_example")
        b = classify(reference_gate(), strategy="paper_example")
        assert a.witness_digest() == b.witness_digest()

    def test_needs_two_epsilons(self):
        with pytest.raises(ValueError):
            classify(reference_gate(), strategy="paper_example", epsilons=(0.1,))

    def test_to_json_shape(self):
        obj = classify(reference_gate(), strategy="paper_example").to_json()
        assert obj["verdict"] == "physical"
        assert set(obj) >= {"verdict", "sigma_jump", "rho_hat_jump", "witness"}


class TestWitnessCsv:
    def test_columns_and_rows(self):
        cls = classify(reference_gate(), strategy="paper_example")
        rows = witness_csv_rows(cls)
        assert rows[0] == [
            "epsilon",
            "k_a",
            "k_b",
            "sigma_jump_running",
            "rho_hat_jump_running",
            "entropy_a",
            "entropy_b",
        ]
        assert len(rows) == 1 + len(DEFAULT_EPSILONS)
        finest = rows[-1]
        assert finest[3] > 0.45  # sigma jump at the finest eps

    def test_running_jump_is_stable_along_the_tail(self):
        cls = classify(reference_gate(), strategy="paper_example")
        rows = witness_csv_rows(cls)[1:]
        sigma_jumps = [r[3] for r in rows]
        # the loop states are pinned the whole way down, so the running
        # separation sits at its limiting value on every grid point
        assert all(abs(j - sigma_jumps[-1]) < 1e-9 for j in sigma_jumps)
