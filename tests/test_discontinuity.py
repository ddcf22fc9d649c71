"""Probe paths, jump analysis, and gate verdicts.

The verdict ladder is continuous_witnessed_none < ephemeral < physical:
"ephemeral" means the pinned loop state jumps between the two directional
limits but the visible output does not; "physical" means the output jumps
too.  "continuous_witnessed_none" is deliberately not a continuity proof —
it only says no probed path witnessed a jump.
"""

import copy
import gc
import json
import weakref

import numpy as np
import pytest

from ctckit import discontinuity
from ctckit.deutsch import SolverDiagnostic
from ctckit.discontinuity import (
    DEFAULT_EPSILONS,
    GateClassification,
    PathFamily,
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

from oracles import classify_loop


def paper_family():
    return PathFamily(reference_center(), mixed_second_qubit, mixed_first_qubit, "golden")


PAPER_EPSILONS = (0.2, 0.1, 0.05, 0.01)


class TestProbe:
    def test_golden_path_records(self):
        result = probe(reference_gate(), paper_family(), PAPER_EPSILONS)
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
        result = probe(reference_gate(), paper_family(), (0.3, 0.2))
        assert len(result.records) == 4
        assert {r.direction for r in result.records} == {"a", "b"}

    def test_grid_is_sorted_and_deduplicated(self):
        result = probe(reference_gate(), paper_family(), [0.01, 0.2, 0.2, 0.1])
        assert [(r.direction, r.epsilon) for r in result.records] == [
            ("a", 0.2), ("a", 0.1), ("a", 0.01), ("b", 0.2), ("b", 0.1), ("b", 0.01)]
        assert [eps for eps, _, _ in result.pairs()] == [0.2, 0.1, 0.01]

    def test_rejects_non_positive_eps(self):
        for epsilons in [(0.1, 0.0), (0.2, -0.1)]:
            with pytest.raises(ValueError, match=r"at least two distinct values in \(0, 1\]"):
                probe(reference_gate(), paper_family(), epsilons)


class TestUserFamilies:
    """Families a caller passes in are checked before any solve."""

    def test_rejects_paths_that_wander_from_center(self, monkeypatch):
        # distance to center must not increase as eps shrinks; the check reads
        # the states the walk built, so no direction is called twice for one
        # eps, and it raises before any point is solved.
        calls, solves = [], []

        def wander(e):
            calls.append(e)
            return mixed_second_qubit(0.3 - e)

        monkeypatch.setattr(discontinuity, "fixed_point_set",
                            lambda *args, **kwargs: solves.append(args))
        family = PathFamily(reference_center(), wander, mixed_first_qubit)
        for run in (lambda: probe(reference_gate(), family, (0.2, 0.1)),
                    lambda: classify(reference_gate(), families=[family], epsilons=(0.2, 0.1))):
            calls.clear()
            with pytest.raises(ValueError, match="^direction_a must approach the center "
                                                 "monotonically in trace distance$"):
                run()
            assert (calls, solves) == ([0.2, 0.1], [])

    def test_rejects_duplicate_labels(self):
        # The witness CSV finds its path by label, so two "" labels would be ambiguous.
        families = [PathFamily(reference_center(), mixed_first_qubit, mixed_first_qubit),
                    PathFamily(reference_center(), mixed_second_qubit, mixed_first_qubit)]
        with pytest.raises(ValueError, match="family labels must be distinct; '' repeats"):
            classify(reference_gate(), families=families)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(strategy="bogus"), "strategy"), (dict(strategy="paper_example"), "strategy"),
        (dict(strategy="paper_example", seed=1), "strategy")],
        ids=["unknown_strategy", "other_strategy", "both"])
    def test_rejects_generation_settings_with_given_families(self, kwargs, name):
        # They would be dropped without a word: the families are not generated.
        with pytest.raises(ValueError, match=f"^{name}=.* applies only to generated families$"):
            classify(reference_gate(), families=[paper_family()], **kwargs)

    def test_distinct_labels_give_the_witness_csv_of_the_best_path(self):
        families = [PathFamily(reference_center(), mixed_first_qubit, mixed_first_qubit, "flat"),
                    paper_family()]
        cls = classify(reference_gate(), families=families)
        assert (cls.verdict, cls.witness["best_path"]) == ("physical", "golden")
        assert witness_csv_rows(cls)[-1][3] == pytest.approx(cls.sigma_jump)


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
        finest_eps = PAPER_EPSILONS[-1]
        monkeypatch.setattr(discontinuity, "fixed_point_set",
                            failing_at(mixed_second_qubit(finest_eps).matrix))
        result = probe(reference_gate(), paper_family(), PAPER_EPSILONS)
        failed = [r for r in result.records if r.error is not None]
        assert [(r.direction, r.epsilon) for r in failed] == [("a", finest_eps)]
        assert failed[0].error == "injected failure"
        assert failed[0].k is None and failed[0].sigma is None

    def test_failing_finest_point_leaves_no_clean_tail(self, monkeypatch):
        monkeypatch.setattr(discontinuity, "fixed_point_set",
                            failing_at(mixed_second_qubit(PAPER_EPSILONS[-1]).matrix))
        c = classify(reference_gate(), families=[paper_family()], epsilons=PAPER_EPSILONS)
        (analysis,) = c.witness["paths"]
        assert analysis["tail_length"] == 0
        assert analysis["rows"][-1]["sigma_jump_running"] is None
        assert any("no qualifying tail" in n for n in analysis["notes"])
        # Without the failure this path witnesses a physical jump.
        assert c.verdict == "continuous_witnessed_none"


    @pytest.mark.parametrize("entry", ["probe", "classify"])
    def test_a_center_diagnostic_is_raised_before_any_later_solve(self, entry, monkeypatch):
        # A center's fixed-point set is its outcome, so its diagnostic is
        # raised, and no point after it in solve order is solved.
        if entry == "probe":
            center, before = reference_center(), 0
        else:
            # vertex0's center and its 6 directions on the grid come first.
            center, before = DensityOperator.basis_state(4, 1), 1 + 6 * len(DEFAULT_EPSILONS)
        fail = failing_at(center.matrix)
        seen = []

        def recorded(u, rho, **kwargs):
            seen.append(rho)
            return fail(u, rho, **kwargs)

        monkeypatch.setattr(discontinuity, "fixed_point_set", recorded)
        with pytest.raises(SolverDiagnostic, match="^injected failure$"):
            if entry == "probe":
                probe(reference_gate(), paper_family(), PAPER_EPSILONS)
            else:
                classify(reference_gate(), "vertex_pairs", max_refinements=0)
        assert len(seen) == before + 1
        np.testing.assert_array_equal(seen[-1].matrix, center.matrix)


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

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            generate_probe_families(reference_gate(), "exhaustive")

    @pytest.mark.parametrize("strategy", ["paper_example", "vertex_pairs"])
    def test_generated_states_are_shared_and_read_only(self, strategy):
        # The paths of a vertex share its center and direction objects within
        # a call; each call builds new families with new, equal states.
        a = generate_probe_families(reference_gate(), strategy)
        b = generate_probe_families(reference_gate(), strategy)
        assert len({id(f.center) for f in a}) == (1 if strategy == "paper_example" else 4)
        assert len({id(d) for f in a for d in (f.family_a, f.family_b)}) == (
            2 if strategy == "paper_example" else 4 * 6)
        states = []
        for fa, fb in zip(a, b):
            assert fa is not fb and fa.center is not fb.center and fa.label == fb.label
            np.testing.assert_array_equal(fa.center.matrix, fb.center.matrix)
            for eps in DEFAULT_EPSILONS:
                assert fa.family_a(eps) is not fa.family_a(eps)
                np.testing.assert_array_equal(fa.family_a(eps).matrix, fb.family_a(eps).matrix)
                np.testing.assert_array_equal(fa.family_b(eps).matrix, fb.family_b(eps).matrix)
                states += [fa.family_a(eps), fa.family_b(eps)]
            states.append(fa.center)
        for state in states:
            assert state.matrix.flags.writeable is False
            assert state.eigenvalues.flags.writeable is False

    def test_mutating_a_returned_family_leaves_the_next_call_alone(self):
        before = classify(reference_gate(), "vertex_pairs")
        fams = generate_probe_families(reference_gate(), "vertex_pairs")
        center = fams[0].center.matrix
        for fam in fams:
            fam.center, fam.family_a, fam.label = fam.family_b(0.5), fam.family_b, "moved"
        again = generate_probe_families(reference_gate(), "vertex_pairs")
        np.testing.assert_array_equal(again[0].center.matrix, center)
        assert again[0].family_a is not fams[0].family_a
        assert again[0].label == "vertex0:mix1|sup1"
        after = classify(reference_gate(), "vertex_pairs")
        assert after.to_json() == before.to_json()
        assert after.witness_digest() == before.witness_digest()

    def test_vertex_pairs_need_two_vertices(self):
        with pytest.raises(ValueError, match="vertex_pairs paths need dim1 >= 2"):
            classify(UnitaryGate.from_permutation(1, 2, (1, 0)), "vertex_pairs")


GATE_4X2 = UnitaryGate.from_permutation(4, 2, (3, 4, 2, 7, 6, 1, 5, 0))


class TestProbePlan:
    """The generated families of a ``(strategy, dim1, grid)`` and their walk
    on a fresh table are made once and kept in ``_plan``, the one memo of
    probe states."""

    def test_gates_of_one_config_share_one_plan(self, empty_probe_table, monkeypatch):
        classify(reference_gate(), max_refinements=0)
        expected = classify_loop(GATE_4X2, max_refinements=0)

        def walk(*args):
            raise AssertionError("the base solve of a second gate walked its families")

        monkeypatch.setattr(discontinuity, "_walk", walk)
        got = classify(GATE_4X2, max_refinements=0)
        assert got.to_json() == expected.to_json()
        info = discontinuity._plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_cache_clear_drops_the_plan(self, empty_probe_table):
        # Clearing the memo frees the plan and every generated state it holds.
        before = classify(GATE_4X2)
        families, layout = discontinuity._plan("vertex_pairs", 4, tuple(DEFAULT_EPSILONS))
        refs = [weakref.ref(obj) for obj in (layout, *layout.todo.values())]
        refs += [weakref.ref(fam.center) for fam in families]
        assert len(layout.todo) == 124
        del families, layout
        discontinuity._plan.cache_clear()
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        after = classify(GATE_4X2)
        assert after.to_json() == before.to_json()
        assert after.witness_digest() == before.witness_digest()

    def test_a_refined_classify_after_a_plan_served_one_matches_the_loop(self, empty_probe_table):
        classify(GATE_4X2, max_refinements=0)
        got = classify(reference_gate(), jump_tol=0.3, max_refinements=2)
        expected = classify_loop(reference_gate(), jump_tol=0.3, max_refinements=2)
        assert got.witness["refinements_used"] == 2
        assert got.to_json() == expected.to_json()
        assert got.witness_digest() == expected.witness_digest()

    def test_plans_are_keyed_by_value(self, empty_probe_table, monkeypatch):
        # Equal grids given as other objects, and gates of another dim2,
        # find the plan of their (strategy, dim1, grid); none is keyed by id().
        gates = [UnitaryGate.from_permutation(2, 2, (1, 0, 3, 2)),
                 UnitaryGate.from_permutation(2, 3, (5, 0, 1, 2, 3, 4))]
        grids = [DEFAULT_EPSILONS, list(reversed(DEFAULT_EPSILONS)),
                 [np.float64(e) for e in DEFAULT_EPSILONS] + [0.2]]
        walk, planned = discontinuity._walk, []

        def recorded(families, grid, number, centers):
            planned.append(grid)
            return walk(families, grid, number, centers)

        monkeypatch.setattr(discontinuity, "_walk", recorded)
        for gate in gates:
            for grid in grids:
                classify(gate, epsilons=grid, max_refinements=0)
        assert planned == [tuple(DEFAULT_EPSILONS)]
        assert all(type(e) is float for e in planned[0])
        info = discontinuity._plan.cache_info()
        assert (info.hits, info.misses) == (len(gates) * len(grids) - 1, 1)

    def test_each_grid_has_its_own_plan(self, empty_probe_table):
        gate = UnitaryGate.from_permutation(2, 2, (1, 0, 3, 2))
        for grid in [(0.5, 0.1), (0.5, 0.05), (0.5, 0.1)]:
            got = classify(gate, epsilons=grid, max_refinements=0)
            _, layout = discontinuity._plan("vertex_pairs", 2, grid)
            assert layout.epsilon[:2].tolist() == list(grid)
            assert got.to_json() == classify_loop(gate, epsilons=grid,
                                                  max_refinements=0).to_json()
        info = discontinuity._plan.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_the_plan_past_the_bound_evicts_the_least_recently_used(self, empty_probe_table):
        grids = [(0.5, 0.1 / (i + 1)) for i in range(discontinuity._PLANS + 1)]
        first = [discontinuity._plan("vertex_pairs", 2, grid) for grid in grids[:-1]]
        assert discontinuity._plan("vertex_pairs", 2, grids[0]) is first[0]  # now most recent
        discontinuity._plan("vertex_pairs", 2, grids[-1])
        assert discontinuity._plan.cache_info().currsize == discontinuity._PLANS
        assert discontinuity._plan("vertex_pairs", 2, grids[0]) is first[0]
        assert discontinuity._plan("vertex_pairs", 2, grids[2]) is first[2]
        assert discontinuity._plan("vertex_pairs", 2, grids[1]) is not first[1]

    def test_plan_arrays_are_read_only(self, empty_probe_table):
        classify(GATE_4X2, max_refinements=0)
        _, plan = discontinuity._plan("vertex_pairs", 4, tuple(DEFAULT_EPSILONS))
        for array in (plan.stack, plan.at, plan.at_a, plan.at_b, plan.epsilon):
            assert array.flags.writeable is False
        assert plan.stack.shape == (len(plan.todo), 4, 4)


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

        def counted(u, rho, **kwargs):
            calls.append(rho)
            return solve(u, rho, **kwargs)

        monkeypatch.setattr(discontinuity, "fixed_point_set", counted)
        classify(gate, "vertex_pairs", max_refinements=0)
        d1 = gate.dim1
        assert len(calls) == d1 * (1 + 2 * (d1 - 1) * len(DEFAULT_EPSILONS))

    def test_only_direction_points_are_selected(self, monkeypatch):
        # The 4 centers are solved but not selected (two of them have k > 0),
        # and a unique fixed state selects itself without a select call.  All
        # 120 direction points of the reference gate have one: 124 solves, 0
        # selections.
        choose = discontinuity.select
        calls = []

        def counted(fps, rule=None):
            calls.append(fps)
            return choose(fps, rule)

        monkeypatch.setattr(discontinuity, "select", counted)
        cls = classify(reference_gate(), "vertex_pairs", max_refinements=0)
        assert len(calls) == 0
        assert {row["k_a"] for p in cls.witness["paths"] for row in p["rows"]} == {0}
        assert sorted({p["center_k"] for p in cls.witness["paths"]}) == [0, 1]

    def test_eigvalsh_calls_of_one_classify(self, empty_probe_table, monkeypatch):
        # The 124 solve cores of a probe call decompose their refined origins
        # and those origins' map residuals in one stacked call; a state keeps
        # its spectrum, so neither its validation nor the entropy of a unique
        # fixed state decomposes it again.  The other 7 calls are the 4
        # stacked limit tests (one per center), the stacked emission's
        # validation and the two batched running jumps.  Centers are not
        # selected, so their k > 0 sets are not optimised.  The first call
        # also validates the 136 generated states (4 centers, 12 other
        # vertices, 120 direction points), which later calls share.
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counted(m, *args, **kwargs):
            calls.append(m)
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        counts = []
        for _ in range(2):
            calls.clear()
            classify(reference_gate(), "vertex_pairs", max_refinements=0)
            counts.append(len(calls))
        assert counts == [144, 8]

    def test_second_gate_builds_no_generated_state(self, monkeypatch):
        classify(reference_gate(), "vertex_pairs", max_refinements=0)
        built, solves, selections, settles = [], [], [], []
        pure, mix_toward = DensityOperator.pure.__func__, discontinuity._mix_toward
        solve, choose = discontinuity.fixed_point_set, discontinuity.select
        settle = discontinuity._settle

        def counted_pure(cls, amplitudes):
            built.append(amplitudes)
            return pure(cls, amplitudes)

        def counted_mix(center, other, eps):
            built.append(eps)
            return mix_toward(center, other, eps)

        def counted_solve(u, rho, **kwargs):
            solves.append(rho)
            return solve(u, rho, **kwargs)

        def counted_select(fps, rule=None):
            selections.append(fps)
            return choose(fps, rule)

        def counted_settle(sets, rule):
            settles.append(sets)
            return settle(sets, rule)

        monkeypatch.setattr(DensityOperator, "pure", classmethod(counted_pure))
        monkeypatch.setattr(discontinuity, "_mix_toward", counted_mix)
        monkeypatch.setattr(discontinuity, "fixed_point_set", counted_solve)
        monkeypatch.setattr(discontinuity, "select", counted_select)
        monkeypatch.setattr(discontinuity, "_settle", counted_settle)
        classify(UnitaryGate.from_permutation(4, 2, (3, 4, 2, 7, 6, 1, 5, 0)), "vertex_pairs",
                 max_refinements=0)
        assert built == []
        # The 20 direction points with a segment of fixed states take the
        # optimizer's first step as one stack, which settles all of them.
        assert (len(solves), len(selections)) == (124, 0)
        assert [[fps.k for fps in sets] for sets in settles] == [[1] * 20]

    def test_each_limit_is_tested_for_membership_once(self, monkeypatch):
        # 60 paths test 2 limits each; they share 4 vertices x 6 directions,
        # and the limits of each center are tested as one stack.
        check = discontinuity._in_set
        calls = []

        def counted(fps, sigmas, tol):
            calls.append((fps, sigmas))
            return check(fps, sigmas, tol)

        monkeypatch.setattr(discontinuity, "_in_set", counted)
        cls = classify(reference_gate(), "vertex_pairs", max_refinements=0)
        assert sum(p["limits_in_set"] is not None for p in cls.witness["paths"]) == 60
        assert [sigmas.shape for _, sigmas in calls] == [(6, 2, 2)] * 4
        assert len({id(fps) for fps, _ in calls}) == 4

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
        # User families are refined like generated ones near the threshold.
        cls = classify(reference_gate(), families=[paper_family()], epsilons=PAPER_EPSILONS,
                       jump_tol=0.3, max_refinements=1)
        assert cls.verdict == "physical"
        assert cls.witness["strategy"] == "user_paths"
        assert cls.witness["refinements_used"] == 1
        (path,) = cls.witness["paths"]
        assert [row["epsilon"] for row in path["rows"]] == pytest.approx(
            list(PAPER_EPSILONS) + [1e-3])

    @pytest.mark.parametrize("entry", ["probe", "classify"])
    def test_given_directions_build_each_state_once(self, entry):
        # The check of a given family hands the states it built to the solve;
        # a refined eps is built once too.
        calls = []

        def counted(direction):
            def fam(e):
                calls.append(e)
                return direction(e)
            return fam

        family = PathFamily(reference_center(), counted(mixed_second_qubit),
                            counted(mixed_first_qubit), "golden")
        grid = list(PAPER_EPSILONS)
        if entry == "probe":
            probe(reference_gate(), family, PAPER_EPSILONS)
        else:
            classify(reference_gate(), families=[family], epsilons=PAPER_EPSILONS,
                     jump_tol=0.3, max_refinements=1)
            grid.append(min(PAPER_EPSILONS) / 10.0)
        assert sorted(calls) == sorted(2 * grid)

    def test_a_direction_shared_by_given_families_is_built_and_solved_once(self, monkeypatch):
        built, solves = [], []
        solve = discontinuity.fixed_point_set

        def counted_solve(u, rho, **kwargs):
            solves.append(rho)
            return solve(u, rho, **kwargs)

        def shared(e):
            built.append(e)
            return mixed_second_qubit(e)

        monkeypatch.setattr(discontinuity, "fixed_point_set", counted_solve)
        center = reference_center()
        families = [PathFamily(center, shared, mixed_first_qubit, label)
                    for label in ("one", "two")]
        cls = classify(reference_gate(), families=families, epsilons=PAPER_EPSILONS,
                       max_refinements=0)
        assert [p["label"] for p in cls.witness["paths"]] == ["one", "two"]
        assert sorted(built) == sorted(PAPER_EPSILONS)
        assert len(solves) == 1 + 2 * len(PAPER_EPSILONS)

    def test_a_refinement_with_no_new_point_builds_no_solve_core(self, monkeypatch):
        # Two families with the same directions: the first's refinement
        # solves the refined eps, so the second's finds every point solved.
        def tilted(e):
            w = min(1.0, 300 * e)
            return DensityOperator(np.diag([1 - e, e * (1 - w), e * w, 0.0]).astype(complex))

        cores, stacks = discontinuity._cores, []

        def counted_cores(u, linear, offset):
            stacks.append(len(linear))
            return cores(u, linear, offset)

        monkeypatch.setattr(discontinuity, "_cores", counted_cores)
        families = [PathFamily(reference_center(), mixed_second_qubit, tilted, label)
                    for label in ("one", "two")]
        cls = classify(reference_gate(), families=families, epsilons=(0.2, 0.1, 0.01, 0.001),
                       jump_tol=0.15, max_refinements=2)
        # each family's center and the 8 shared points, then the refined eps
        assert stacks == [2 + 2 * 4, 2]
        assert cls.witness["refinements_used"] == 2
        one, two = cls.witness["paths"]
        assert dict(one, label="two") == two

    @pytest.mark.parametrize("entry", ["probe", "classify"])
    def test_given_directions_are_not_kept_after_the_call(self, entry):
        def direction(e):
            return mixed_second_qubit(e)

        ref = weakref.ref(direction)
        family = PathFamily(reference_center(), direction, mixed_first_qubit, "golden")
        if entry == "probe":
            probe(reference_gate(), family, PAPER_EPSILONS)
        else:
            classify(reference_gate(), families=[family], epsilons=PAPER_EPSILONS)
        del family, direction
        gc.collect()
        assert ref() is None

    def test_limits_outside_the_center_set_are_no_witness(self, monkeypatch):
        # Both pools hold no such path above jump_tol, so one limit is rejected here.
        check = discontinuity._in_set

        def reject_first(fps, sigmas, tol):
            return [False] + check(fps, sigmas, tol)[1:]

        monkeypatch.setattr(discontinuity, "_in_set", reject_first)
        cls = classify(reference_gate(), strategy="paper_example")
        (path,) = cls.witness["paths"]
        assert cls.verdict == path["verdict"] == "continuous_witnessed_none"
        assert path["sigma_jump"] > cls.witness["jump_tol"]
        assert path["limits_in_set"] == [False, True]
        assert path["notes"] == [
            "directional limits differ but do not both lie in the center fixed-point set; "
            "not counted as a witness"
        ]

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
        assert a.to_json() == b.to_json()
        assert a.witness_digest() == b.witness_digest()

    def test_needs_two_epsilons(self):
        with pytest.raises(ValueError):
            classify(reference_gate(), strategy="paper_example", epsilons=(0.1,))

    @pytest.mark.parametrize("epsilons", [(2.0, 0.1), (0.1, 0.0), (1.5, 1.2)])
    def test_rejects_epsilons_outside_the_unit_interval(self, epsilons):
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            classify(reference_gate(), strategy="paper_example", epsilons=epsilons)

    def test_rejects_an_empty_path_list(self):
        with pytest.raises(ValueError, match="at least one path family"):
            classify(reference_gate(), families=[])

    @pytest.mark.parametrize("jump_tol", [0.0, -1.0, float("nan"), float("inf"), "0.1", True])
    def test_rejects_a_bad_jump_tol(self, jump_tol):
        with pytest.raises(ValueError, match="jump_tol must be a finite positive number"):
            classify(reference_gate(), strategy="paper_example", jump_tol=jump_tol)

    @pytest.mark.parametrize("max_refinements", [-1, 1.5])
    def test_rejects_a_bad_refinement_budget(self, max_refinements):
        with pytest.raises(ValueError, match="max_refinements must be a non-negative integer"):
            classify(reference_gate(), strategy="paper_example", max_refinements=max_refinements)

    def test_to_json_shape(self):
        obj = classify(reference_gate(), strategy="paper_example").to_json()
        assert obj["verdict"] == "physical"
        assert set(obj) >= {"verdict", "sigma_jump", "rho_hat_jump", "witness"}


def _moved(tree, toward):
    """A copy of a JSON tree with every float moved by one ulp toward ``toward``."""
    if isinstance(tree, dict):
        return {key: _moved(value, toward) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_moved(value, toward) for value in tree]
    if isinstance(tree, float):
        return float(np.nextafter(tree, toward))
    return tree


def _digest(obj):
    return GateClassification(**obj).witness_digest()


def _first_limits_path(obj):
    return next(p for p in obj["witness"]["paths"] if p["limits_in_set"] is not None)


def _jump_moved(obj):
    _first_limits_path(obj)["sigma_jump"] += 1e-6


def _row_jump_moved(obj):
    obj["witness"]["paths"][0]["rows"][-1]["rho_hat_jump_running"] += 1e-6


def _limit_flipped(obj):
    limits = _first_limits_path(obj)["limits_in_set"]
    limits[0] = not limits[0]


def _path_renamed(obj):
    obj["witness"]["paths"][0]["label"] += "'"


def _row_moved(obj):
    # The rows, in order, are unchanged; only the two paths' row counts move.
    paths = obj["witness"]["paths"]
    paths[1]["rows"].insert(0, paths[0]["rows"].pop())


class TestWitnessDigest:
    """What the witness digest guarantees: floats count to 9 decimals, and
    every other part of the witness counts as it is."""

    @pytest.fixture(scope="class")
    def reference(self):
        return classify(reference_gate()).to_json()

    @pytest.mark.parametrize("toward", [np.inf, -np.inf])
    def test_one_ulp_on_every_float_leaves_the_digest(self, reference, toward):
        moved = _moved(reference, toward)
        assert moved != reference
        assert _digest(moved) == _digest(reference)

    @pytest.mark.parametrize("change", [
        _jump_moved, _row_jump_moved, _limit_flipped, _path_renamed, _row_moved])
    def test_a_change_of_the_witness_moves_the_digest(self, reference, change):
        changed = copy.deepcopy(reference)
        change(changed)
        assert changed != reference
        assert _digest(changed) != _digest(reference)

    def test_a_missing_row_value_is_not_zero(self, reference):
        missing, zero = copy.deepcopy(reference), copy.deepcopy(reference)
        missing["witness"]["paths"][0]["rows"][0]["sigma_jump_running"] = None
        zero["witness"]["paths"][0]["rows"][0]["sigma_jump_running"] = 0.0
        assert _digest(missing) != _digest(zero)

    def test_the_digest_leaves_the_witness_alone(self, reference):
        cls = GateClassification(**copy.deepcopy(reference))
        cls.witness_digest()
        assert cls.to_json() == reference


def _classified(case, monkeypatch):
    if case == "clean":
        return classify(reference_gate(), max_refinements=0)
    if case == "refining":
        cls = classify(reference_gate(), jump_tol=0.3, max_refinements=3)
        assert cls.__dict__["_head"]["refinements_used"] == 3
        return cls
    monkeypatch.setattr(discontinuity, "fixed_point_set",
                        failing_at(mixed_second_qubit(PAPER_EPSILONS[-1]).matrix))
    return classify(reference_gate(), families=[paper_family()], epsilons=PAPER_EPSILONS)


class TestWitnessTable:
    """A classification holds its witness rows as one float table, hashes
    that table as it is, and builds new row dicts on every read."""

    @pytest.mark.parametrize("case", ["clean", "refining", "failing_point"])
    def test_the_table_digest_is_the_digest_of_the_witness_dict(self, case, monkeypatch):
        cls = _classified(case, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(discontinuity, "_witness_rows", None)  # a row dict would raise
            digest = cls.witness_digest()
        obj = json.loads(json.dumps(cls.to_json()))
        jumps = [row["sigma_jump_running"] for path in obj["witness"]["paths"]
                 for row in path["rows"]]
        assert (None in jumps) == (case == "failing_point")  # NaN cells read as None
        assert GateClassification(**obj).witness_digest() == digest
        assert cls.witness_digest() == digest  # the witness read above changed nothing

    def test_each_read_builds_a_new_equal_witness(self):
        cls = classify(reference_gate(), strategy="paper_example")
        first, second = cls.witness, cls.to_json()["witness"]
        (path,) = first["paths"]
        assert [type(row["k_a"]) for row in path["rows"]] == [int] * len(DEFAULT_EPSILONS)
        assert first == second and first is not second
        assert first["paths"] is not second["paths"]
        assert first["paths"][0]["notes"] is not second["paths"][0]["notes"]
        assert first["paths"][0]["rows"][0] is not second["paths"][0]["rows"][0]

    @pytest.mark.parametrize("built", ["classify", "to_json"])
    def test_a_changed_witness_read_changes_nothing(self, built):
        cls = classify(reference_gate(), strategy="paper_example")
        if built == "to_json":
            cls = GateClassification(**cls.to_json())
        before, digest = cls.to_json(), cls.witness_digest()
        witness = cls.witness
        witness["paths"][0]["rows"][-1]["rho_hat_jump_running"] += 1e-6
        witness["paths"][0]["notes"].append("changed")
        witness["paths"][0]["label"] += "'"
        witness["epsilons"].append(1e-4)
        assert cls.to_json() == before
        assert cls.witness_digest() == digest


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
