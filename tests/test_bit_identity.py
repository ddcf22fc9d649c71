"""The batched solver core returns exactly the bits of its loop version.

The (3, 3) census has solves on a knife edge: ``sigma_min(M - I)`` is about
1e-6, so the fixed-point residual is about machine epsilon times 1e6, right
at ``RESIDUAL_TOL``.  A change of one ulp in the superoperator there flips
whether the solve raises ``SolverDiagnostic``, and so moves census verdicts
and jumps.  These tests therefore compare with ``np.array_equal`` and exact
float equality, never ``allclose``: the batched charts, the batched
superoperator and every output of ``fixed_point_set`` must equal what the
loop versions in ``oracles`` produce, on seeded permutation and Haar-random
dense gates.  The solver also equals ``oracles.fixed_point_set_ref``, its
form before its candidates became one loop, on the same inputs and on a
(3, 3) solve that raises or, with a looser tolerance, accepts slowly, and
at step budgets on the edges of the solver's candidate stacks.  A stack
of solve cores, built for many states at once as ``discontinuity._probe``
builds them, finishes each state's solve exactly as its own stack of one
does.  The same holds one level up: the stacked emission equals the
``np.kron`` formula, and ``classify`` gives the witness digest of the
per-path loop it replaced.
"""

import numpy as np
import pytest

from ctckit import deutsch, discontinuity
from ctckit.basis import HermitianBasis, hermitian_basis
from ctckit.deutsch import (
    RESIDUAL_TOL,
    SolverDiagnostic,
    build_superoperator,
    deutsch_map,
    evolve_out,
    fixed_point_set,
    membership,
)
from ctckit.discontinuity import (
    DEFAULT_EPSILONS, LIMIT_MEMBERSHIP_TOL, PathFamily, classify, generate_probe_families)
from ctckit.reference import reference_center, reference_gate
from ctckit.selection import RULE_KINDS, SelectionRule, ctc_channel, select
from ctckit.states import DensityOperator, UnitaryGate, _spectrum_entropy

from oracles import (
    build_superoperator_loop,
    classify_loop,
    deutsch_map_kron,
    evolve_out_kron,
    fixed_point_set_ref,
    from_traceless_loop,
    gell_mann_loop,
    random_density,
    random_unitary,
    superoperators_loop,
    traceless_coords_loop,
)

DIMS = [(2, 2), (4, 2), (2, 3), (3, 3), (2, 4), (3, 2)]
CASES_PER_DIMS = 24

# A (3, 3) input whose refined start misses the tolerance, so the solve runs
# the Cesaro loop (64 iterations).
CESARO_GATE = (3, 2, 8, 4, 1, 5, 6, 0, 7)
CESARO_RHO = np.diag([0.999, 0.0, 0.001]).astype(complex)


def _cesaro_input():
    return UnitaryGate.from_permutation(3, 3, CESARO_GATE), DensityOperator(CESARO_RHO)


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
        out.append(_cesaro_input())
    return out


def _assert_same_fixed_point_set(new, ref):
    np.testing.assert_array_equal(new.affine.linear, ref.affine.linear)
    np.testing.assert_array_equal(new.affine.offset, ref.affine.offset)
    # Bytes, so that a signed zero shows; the state is read-only and keeps
    # the spectrum ``eigvalsh`` gives for its own matrix.
    particular = new.particular
    assert particular.matrix.tobytes() == ref.particular.matrix.tobytes()
    assert not particular.matrix.flags.writeable and not particular.eigenvalues.flags.writeable
    assert particular.eigenvalues.tobytes() == np.linalg.eigvalsh(particular.matrix).tobytes()
    assert new.k == ref.k
    assert len(new.basis) == len(ref.basis) == new.k
    for b_new, b_ref in zip(new.basis, ref.basis):
        np.testing.assert_array_equal(b_new, b_ref)
    assert new.residuals == ref.residuals
    assert new.warnings == ref.warnings
    np.testing.assert_array_equal(new.affine_pinv, ref.affine_pinv)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_elements_match_loop(dim):
    elements = hermitian_basis(dim).elements
    assert elements.shape == (dim * dim, dim, dim)
    for el, ref in zip(elements, gell_mann_loop(dim)):
        assert np.array_equal(el, ref)


def _chart_inputs(rng, dim):
    """Seeded ``dim x dim`` matrices: density matrices, sparse complex ones with
    signed zeros in both parts, real-diagonal ones and real ones with -0.0."""
    out = [random_density(rng, dim) for _ in range(20)]
    zeros = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)])
    for _ in range(20):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hit = rng.random((dim, dim)) < 0.6
        m[hit] = rng.choice(zeros, hit.sum())
        out.append(m)
    for _ in range(10):
        out.append(np.diag(rng.normal(size=dim)).astype(complex))
        m = rng.normal(size=(dim, dim)).astype(complex)
        m[rng.random((dim, dim)) < 0.4] = -0.0
        out.append(m)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
def test_charts_match_loops(dim):
    # Bytes, so that a signed zero shows.
    rng = np.random.default_rng(dim)
    b = hermitian_basis(dim)
    for m in _chart_inputs(rng, dim):
        assert b.traceless_coords(m).tobytes() == traceless_coords_loop(b, m).tobytes()
    for _ in range(20):
        x = rng.normal(size=b.n_traceless)
        for trace in (1.0, 0.0):
            assert np.array_equal(b.from_traceless(x, trace=trace), from_traceless_loop(b, x, trace=trace))


def test_stacked_coords_match_one_at_a_time():
    # d = 4 is the first dim where summing real parts, or reducing a
    # fancy-indexed gather, would add in another order; the stack has two
    # leading axes.
    for dim in (3, 4):
        rng = np.random.default_rng(dim + 1)
        b = hermitian_basis(dim)
        stack = np.stack(_chart_inputs(rng, dim)[:60]).reshape(3, 4, 5, dim, dim)
        coords = b.traceless_coords(stack)
        assert coords.shape == (3, 4, 5, dim * dim - 1)
        for m, x in zip(stack.reshape(-1, dim, dim), coords.reshape(-1, dim * dim - 1)):
            assert x.tobytes() == traceless_coords_loop(b, m).tobytes()


@pytest.mark.parametrize("dim1,dim2", DIMS)
def test_superoperator_matches_loop(dim1, dim2):
    cases = _cases(dim1, dim2)
    for gate, rho in cases:
        aff = build_superoperator(gate, rho)
        linear, offset = build_superoperator_loop(gate, rho)
        assert np.array_equal(aff.linear, linear)
        assert np.array_equal(aff.offset, offset)
    # Each row of a stack is its own state's map, under every gate of the cases.
    stack = np.stack([rho.matrix for _, rho in cases])
    for gate, _ in cases:
        linears, offsets = deutsch._superoperators(gate, stack)
        for (_, rho), linear, offset in zip(cases, linears, offsets):
            ref_linear, ref_offset = build_superoperator_loop(gate, rho)
            assert np.array_equal(linear, ref_linear)
            assert np.array_equal(offset, ref_offset)


@pytest.mark.parametrize("dim1,dim2", DIMS)
def test_fixed_point_set_matches_loop_core(dim1, dim2, monkeypatch):
    cases = _cases(dim1, dim2)
    with monkeypatch.context() as mp:
        mp.setattr(deutsch, "_superoperators", superoperators_loop)
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


# A (3, 3) direction point of the census pool whose solve raises after the
# whole Cesaro loop; with a looser tolerance and fewer steps it is accepted
# by the fallback instead.
def _raising_input():
    gate = UnitaryGate.from_permutation(3, 3, GATE_3X3_DIAGNOSTIC)
    family = next(f for f in generate_probe_families(gate, "vertex_pairs")
                  if f.label == "vertex2:mix0|sup0")
    return gate, family.family_b(0.001)


@pytest.mark.parametrize("dim1,dim2", DIMS)
def test_fixed_point_set_matches_the_pre_rewrite_solver(dim1, dim2):
    solves = [(fixed_point_set(gate, rho), fixed_point_set_ref(gate, rho))
              for gate, rho in _cases(dim1, dim2)]
    for new, ref in solves:
        _assert_same_fixed_point_set(new, ref)
        assert np.array_equal(new.particular.eigenvalues,
                              np.linalg.eigvalsh(new.particular.matrix))
    if (dim1, dim2) == (3, 3):
        assert solves[-1][0].residuals["iterations"] == 64  # CESARO_GATE


def test_raising_solve_matches_the_pre_rewrite_solver():
    gate, rho = _raising_input()
    with pytest.raises(SolverDiagnostic) as new:
        fixed_point_set(gate, rho)
    with pytest.raises(SolverDiagnostic) as ref:
        fixed_point_set_ref(gate, rho)
    assert str(new.value) == str(ref.value) == (
        "no fixed-point candidate within tolerance after 100000 iterations "
        "(min eigenvalue 6.355e-07, residual 6.473e-07)")


def test_slow_convergence_acceptance_matches_the_pre_rewrite_solver():
    gate, rho = _raising_input()
    kwargs = dict(residual_tol=1e-3, max_iterations=64)
    new = fixed_point_set(gate, rho, **kwargs)
    _assert_same_fixed_point_set(new, fixed_point_set_ref(gate, rho, **kwargs))
    assert new.residuals["iterations"] == 64
    assert new.warnings == [
        "slow convergence: accepted candidate with residual 1.649e-04 after 64 iterations"]


# Step budgets at the edges of the candidate stacks: none, one step, around
# the first checkpoints, and 65 checkpoints, where the doubling blocks
# (1, 2, ..., 32) have run 63 and the next block stops at the budget.
BLOCK_EDGES = [0, 1, 63, 64, 65, 127, 128, 129, 4160]


@pytest.mark.parametrize("max_iterations", BLOCK_EDGES)
@pytest.mark.parametrize("make_input", [_cesaro_input, _raising_input], ids=["cesaro", "raising"])
def test_block_edges_match_the_pre_rewrite_solver(make_input, max_iterations):
    gate, rho = make_input()
    try:
        ref = fixed_point_set_ref(gate, rho, max_iterations=max_iterations)
    except SolverDiagnostic as exc:
        with pytest.raises(SolverDiagnostic) as new:
            fixed_point_set(gate, rho, max_iterations=max_iterations)
        assert str(new.value) == str(exc)
        return
    new = fixed_point_set(gate, rho, max_iterations=max_iterations)
    _assert_same_fixed_point_set(new, ref)


@pytest.mark.parametrize("max_iterations", [-1, -64, 2.5, 64.5, True, False, float("nan"), "64"])
@pytest.mark.parametrize("make_input", [lambda: (reference_gate(), reference_center()),
                                        _raising_input], ids=["origin_passes", "raising"])
def test_max_iterations_must_be_a_count(make_input, max_iterations):
    # Unchecked, a negative count meant no step ("after 0 iterations"), and a
    # fraction passed when the refined origin did and otherwise broke ``range``;
    # a bool is not a count, and NaN or a string is not a number of steps.
    with pytest.raises(ValueError, match="max_iterations must be a non-negative integer"):
        fixed_point_set(*make_input(), max_iterations=max_iterations)


def test_raising_solve_checks_its_candidates_as_stacks(monkeypatch):
    # 3,127 candidates: the refined origin alone, then 1,563 checkpoints (each
    # a refined and a raw mean) in 30 blocks: 1, 2, ..., 32, then 23 of 64 and
    # the last 28.  A stack is one ``from_traceless`` of its candidates and
    # their images, and one ``eigvalsh`` of both; one at a time it was 6,254
    # ``from_traceless`` and 6,254 ``eigvalsh`` calls.
    gate, rho = _raising_input()
    counts = {"eigvalsh": 0, "from_traceless": 0}
    eigvalsh, from_traceless = np.linalg.eigvalsh, HermitianBasis.from_traceless

    def counted_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counted_from_traceless(*args, **kwargs):
        counts["from_traceless"] += 1
        return from_traceless(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(HermitianBasis, "from_traceless", counted_from_traceless)
    with pytest.raises(SolverDiagnostic, match="after 100000 iterations"):
        fixed_point_set(gate, rho)
    assert counts == {"eigvalsh": 31, "from_traceless": 31}


def _stack_gate(dim1, dim2):
    """A seeded permutation gate; on (3, 3) the census gate with raising points."""
    if (dim1, dim2) == (3, 3):
        return UnitaryGate.from_permutation(3, 3, GATE_3X3_DIAGNOSTIC)
    return UnitaryGate.from_permutation(
        dim1, dim2, np.random.default_rng(10 * dim1 + dim2).permutation(dim1 * dim2))


# One gate per entry of DIMS, and the (4, 2) one with a seeded phase on each
# column, which makes it dense with the same degenerate vertices.
STACK_GATES = {
    **{f"{d1}x{d2}": (lambda d1=d1, d2=d2: _stack_gate(d1, d2)) for d1, d2 in DIMS},
    "4x2_dense": lambda: UnitaryGate(
        _stack_gate(4, 2).matrix * np.exp(2j * np.pi * np.random.default_rng(5).random(8)), 4, 2),
}


def _vertex_points(gate):
    """Every distinct ``vertex_pairs`` point of ``gate`` in probe order: each
    center, then its directions at DEFAULT_EPSILONS and 1e-4."""
    points = {}
    for fam in generate_probe_families(gate, "vertex_pairs"):
        points.setdefault(fam.center, fam.center)
        for direction in (fam.family_a, fam.family_b):
            for eps in (*discontinuity.DEFAULT_EPSILONS, 1e-4):
                points.setdefault((direction, eps), direction(eps))
    return list(points.values())


@pytest.mark.parametrize("case", list(STACK_GATES))
def test_stacked_cores_finish_as_standalone_solves(case):
    # All points of a gate share one stack of solve cores, unique and
    # degenerate sets alike; each point's finish equals its own solve, or
    # raises the same text.
    gate = STACK_GATES[case]()
    states = _vertex_points(gate)
    cores = deutsch._cores(gate, *deutsch._superoperators(
        gate, np.stack([state.matrix for state in states])))
    assert len(cores) == len(states)
    ks, raised, warned = set(), {}, 0
    for state, core in zip(states, cores):
        try:
            ref = fixed_point_set(gate, state)
        except SolverDiagnostic as exc:
            with pytest.raises(SolverDiagnostic) as new:
                fixed_point_set(gate, state, core=core)
            raised[state.matrix.tobytes()] = str(new.value)
            assert str(new.value) == str(exc)
            continue
        new = fixed_point_set(gate, state, core=core)
        _assert_same_fixed_point_set(new, ref)
        assert np.array_equal(new.particular.eigenvalues, ref.particular.eigenvalues)
        ks.add(new.k)
        warned += bool(new.warnings)
    assert 0 in ks and max(ks) > 0
    if case == "3x3":
        assert (len(raised), warned) == (3, 2)  # two gray-zone points at eps = 1e-4
        assert raised[_raising_input()[1].matrix.tobytes()] == (
            "no fixed-point candidate within tolerance after 100000 iterations "
            "(min eigenvalue 6.355e-07, residual 6.473e-07)")


def _edge_spectra(d2):
    """Seeded spectra of ``d2`` eigenvalues, most with entries that are zero,
    tiny, slightly negative or slightly above 1, as rounding leaves them."""
    rng = np.random.default_rng(40 + d2)
    spectra = rng.dirichlet(np.ones(d2), 400)
    edges = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-17, -5e-13, 1.0 + 2e-16, 1.0])
    hit = rng.random(spectra.shape) < 0.4
    spectra[hit] = rng.choice(edges, hit.sum())
    return np.concatenate([spectra, np.eye(d2), np.zeros((1, d2)), np.full((1, d2), 1.0 / d2)])


@pytest.mark.parametrize("d2", [2, 3, 4, 8, 9, 16])
def test_stacked_entropy_matches_each_spectrum(d2):
    # The stack gives each spectrum's own value.  Up to 7 eigenvalues that is
    # the sum over its positive entries alone, signed zeros included; numpy
    # sums 8 or more terms pairwise, so there the zero terms may move the
    # last bit against that sum, but not against the spectrum's own call.
    spectra = _edge_spectra(d2)
    stacked = _spectrum_entropy(spectra)
    one_at_a_time = np.array([_spectrum_entropy(e) for e in spectra])
    assert stacked.shape == (len(spectra),)
    assert stacked.tobytes() == one_at_a_time.tobytes()
    if d2 < 8:
        positive_only = []
        for e in spectra:
            p = np.clip(e, 0.0, 1.0)
            nz = p[p > 0.0]
            positive_only.append(float(-np.sum(nz * np.log(nz))) + 0.0)
        assert stacked.tobytes() == np.array(positive_only).tobytes()
    assert (spectra == 0.0).any(axis=1).sum() > 80  # spectra with a zero term
    assert 0.0 in stacked and (stacked > 0.0).any()


@pytest.mark.parametrize("dim1,dim2", [(1, 8), (2, 8), (1, 9)])
def test_wide_loops_select_and_emit_as_the_channel_does(dim1, dim2):
    # With 8 or more loop levels numpy sums each entropy pairwise.  The
    # stacked stage still gives every point the sigma, entropy and emitted
    # state of its own ctc_channel call, at the vertices (degenerate sets)
    # and at mixed inputs (unique sets).
    rng = np.random.default_rng(80 * dim1 + dim2)
    ks = set()
    for _ in range(6):
        gate = UnitaryGate.from_permutation(dim1, dim2, rng.permutation(dim1 * dim2))
        rhos = [DensityOperator.basis_state(dim1, v) for v in range(dim1)]
        if dim1 > 1:
            rhos += [DensityOperator(random_density(rng, dim1)) for _ in range(2)]
        sets = [fixed_point_set(gate, rho) for rho in rhos]
        entropies, sigmas, rho_hats = discontinuity._select_and_emit(
            gate, np.stack([rho.matrix for rho in rhos]), sets, None)
        for rho, entropy, sigma, rho_hat in zip(rhos, entropies, sigmas, rho_hats, strict=True):
            want, sel = ctc_channel(gate, rho)
            assert sigma.tobytes() == sel.sigma.matrix.tobytes()
            assert np.float64(entropy).tobytes() == np.float64(sel.entropy).tobytes()
            assert rho_hat.tobytes() == want.matrix.tobytes()
        ks.update(fps.k for fps in sets)
    assert max(ks) > 0 and (0 in ks) == (dim1 > 1)


@pytest.mark.parametrize("kind", RULE_KINDS)
@pytest.mark.parametrize("case", ["4x2", "3x3"])
def test_unique_sets_select_their_particular_state(case, kind, monkeypatch):
    # Each rule selects the one state of a unique set, so the stacked stage
    # gives select's sigma bits and entropy without calling it.  The spectra
    # of the states it selects are checked on probe records.
    gate = STACK_GATES[case]()
    rule = SelectionRule(kind=kind, coordinates=(0.25,))
    points = []
    for state in _vertex_points(gate):
        try:
            fps = fixed_point_set(gate, state)
        except SolverDiagnostic:
            continue
        if fps.k == 0:
            points.append((state, fps))
    refs = [select(fps, rule) for _, fps in points]
    monkeypatch.setattr(discontinuity, "select", None)  # a call would raise
    entropies, sigmas, _ = discontinuity._select_and_emit(
        gate, np.stack([state.matrix for state, _ in points]), [fps for _, fps in points], rule)
    assert len(entropies) == len(sigmas) == len(points) > 50
    for ref, sigma, entropy in zip(refs, sigmas, entropies):
        assert sigma.tobytes() == ref.sigma.matrix.tobytes()
        assert np.float64(entropy).tobytes() == np.float64(ref.entropy).tobytes()


# Pool gates whose direction points meet degenerate sets, and the k of those
# sets: on (4, 2) the first step settles them all; on (3, 3) some k = 1 sets
# have a gradient at the start that does not vanish.
FIRST_STEP_GATES = {
    "4x2": (4, 2, [(2, 5, 0, 7, 4, 1, 6, 3), (0, 2, 7, 1, 4, 5, 3, 6)], {1, 3}),
    "3x3": (3, 3, [(7, 3, 2, 0, 4, 5, 1, 6, 8), (6, 1, 2, 0, 4, 3, 5, 7, 8)], {1, 3, 4}),
}


# Small enough to stay inside every degenerate set of FIRST_STEP_GATES.
CONSTANT_INDEX = SelectionRule(kind="constant_index", coordinates=(0.01,))


@pytest.mark.parametrize("case", list(FIRST_STEP_GATES))
def test_stacked_first_step_matches_select(case, monkeypatch):
    # The sets the stacked first step settles get select's sigma bits and
    # entropy; the others, and every set under another rule, reach
    # discontinuity.select.
    dim1, dim2, perms, expected_ks = FIRST_STEP_GATES[case]
    reached = []

    def recording_select(fps, rule=None):
        reached.append(fps)
        return select(fps, rule)

    monkeypatch.setattr(discontinuity, "select", recording_select)
    ks, unsettled = set(), 0
    for perm in perms:
        gate = UnitaryGate.from_permutation(dim1, dim2, perm)
        points = []
        for state in _vertex_points(gate):
            try:
                fps = fixed_point_set(gate, state)
            except SolverDiagnostic:
                continue
            if fps.k:
                points.append((state, fps))
        rhos, sets = np.stack([state.matrix for state, _ in points]), [fps for _, fps in points]
        refs = [select(fps) for fps in sets]
        settled = [ref.iterations == 1 and ref.gradient_norm <= 1e-10 for ref in refs]
        reached.clear()
        entropies, sigmas, _ = discontinuity._select_and_emit(gate, rhos, sets, None)
        assert [id(fps) for fps in reached] == [
            id(fps) for fps, done in zip(sets, settled) if not done]
        for ref, sigma, entropy in zip(refs, sigmas, entropies, strict=True):
            assert sigma.tobytes() == ref.sigma.matrix.tobytes()
            assert np.float64(entropy).tobytes() == np.float64(ref.entropy).tobytes()
        for rule in (SelectionRule(kind="min_entropy"), CONSTANT_INDEX):
            reached.clear()
            discontinuity._select_and_emit(gate, rhos, sets, rule)
            assert [id(fps) for fps in reached] == [id(fps) for fps in sets]
        ks.update(fps.k for fps in sets)
        unsettled += settled.count(False)
    assert ks == expected_ks
    assert (unsettled > 0) == (case == "3x3")


@pytest.mark.parametrize("case", ["reference", "identity_3x3"])
def test_stacked_limit_test_matches_membership(case):
    # Every solved point of every path is tested against its center's set,
    # at the limit tolerance and at the solver's, as the limits are.
    gate = reference_gate() if case == "reference" else UnitaryGate.identity(3, 3)
    families = generate_probe_families(gate, "vertex_pairs")
    verdicts = set()
    for result in discontinuity._probe(gate, families, list(DEFAULT_EPSILONS), None):
        sigmas = [r.sigma for r in result.records if r.error is None]
        for tol in (LIMIT_MEMBERSHIP_TOL, RESIDUAL_TOL):
            stacked = deutsch._in_set(result.center_fps, np.stack([s.matrix for s in sigmas]), tol)
            assert stacked == [membership(result.center_fps, s, tol=tol).ok for s in sigmas]
            verdicts.update(stacked)
    assert verdicts == ({True, False} if case == "reference" else {True})


# The reference gate, and a (4, 2) and a (3, 3) pool gate whose direction
# points meet degenerate sets.
PROBE_GATES = {
    "reference": reference_gate,
    "4x2": lambda: UnitaryGate.from_permutation(4, 2, FIRST_STEP_GATES["4x2"][2][0]),
    "3x3": lambda: UnitaryGate.from_permutation(3, 3, FIRST_STEP_GATES["3x3"][2][0]),
}


@pytest.mark.parametrize("rule", [None, SelectionRule(kind="min_entropy"), CONSTANT_INDEX],
                         ids=["none", "min", "constant"])
@pytest.mark.parametrize("case", list(PROBE_GATES))
def test_probe_records_match_the_per_point_chain(case, rule):
    # Each record of probe() holds the bits of its point's own
    # fixed_point_set -> select -> evolve_out chain: both states' matrices
    # and spectra, the entropy as a float and k as an int.
    gate = PROBE_GATES[case]()
    chain = {}
    for fam in generate_probe_families(gate, "vertex_pairs"):
        if {(fam.family_a, DEFAULT_EPSILONS[0]), (fam.family_b, DEFAULT_EPSILONS[0])} <= set(chain):
            continue  # both directions were probed with another family
        result = discontinuity.probe(gate, fam, DEFAULT_EPSILONS, rule)
        directions = [fam.family_a] * len(DEFAULT_EPSILONS) + [fam.family_b] * len(DEFAULT_EPSILONS)
        for direction, rec in zip(directions, result.records, strict=True):
            key = direction, rec.epsilon
            if key not in chain:
                state = direction(rec.epsilon)
                fps = fixed_point_set(gate, state)
                sel = select(fps, rule)
                chain[key] = fps.k, sel, evolve_out(gate, state, sel.sigma)
            k, sel, rho_hat = chain[key]
            assert rec.error is None and type(rec.k) is int and rec.k == k
            assert type(rec.entropy) is float
            assert np.float64(rec.entropy).tobytes() == np.float64(sel.entropy).tobytes()
            for got, want in ((rec.sigma, sel.sigma), (rec.rho_hat, rho_hat)):
                assert got.matrix.tobytes() == want.matrix.tobytes()
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert any(k for k, _, _ in chain.values()) == (case != "reference")
    # every vertex's directions: 6 on (4, 2), 4 on (3, 3)
    assert len(chain) == {"reference": 120, "4x2": 120, "3x3": 60}[case]


@pytest.mark.parametrize("dim1,dim2", DIMS)
def test_emission_matches_kron(dim1, dim2):
    rng = np.random.default_rng(7 * dim1 + dim2)
    for gate, rho in _cases(dim1, dim2):
        sigma = DensityOperator(random_density(rng, dim2))
        assert np.array_equal(evolve_out(gate, rho, sigma).matrix,
                              evolve_out_kron(gate, rho, sigma).matrix)
        assert np.array_equal(deutsch_map(gate, rho, sigma).matrix,
                              deutsch_map_kron(gate, rho, sigma).matrix)


# (3, 3) gates of the census pool: a physical one, and one with a direction
# point whose solve raises SolverDiagnostic.
GATE_3X3 = (7, 0, 1, 2, 4, 6, 3, 8, 5)
GATE_3X3_DIAGNOSTIC = (6, 3, 4, 8, 1, 7, 0, 2, 5)


def _haar_pure_families(dim1, seed, count=4):
    """Given families on non-vertex centers: each center is a seeded
    Haar-random pure state, mixed toward two more along its directions."""
    rng = np.random.default_rng(seed)

    def haar_pure():
        v = rng.standard_normal(dim1) + 1j * rng.standard_normal(dim1)
        return DensityOperator.pure(v / np.linalg.norm(v))

    def mix(center, other):
        return lambda e: DensityOperator((1.0 - e) * center.matrix + e * other.matrix)

    families = []
    for i in range(count):
        center, other_a, other_b = haar_pure(), haar_pure(), haar_pure()
        families.append(PathFamily(center, mix(center, other_a), mix(center, other_b),
                                   f"haar{i}"))
    return families


# (gate, classify keyword arguments) pairs for the witness-digest comparison.
CLASSIFY_CASES = {
    "reference_vertex_pairs": (reference_gate, {}),
    **{f"near_threshold_refine{r}": (
        reference_gate, dict(strategy="paper_example", jump_tol=0.3, max_refinements=r))
       for r in (0, 1, 2)},
    # The first path takes all three refinements; its directions are shared
    # with paths whose base grids must not see the refined points.
    "vertex_pairs_refined": (reference_gate, dict(jump_tol=0.3, max_refinements=3)),
    "haar_pure_centers": (reference_gate, dict(families=_haar_pure_families(4, seed=3))),
    # User families are refined like generated ones.
    "user_paths": (reference_gate, dict(
        families=generate_probe_families(reference_gate(), "vertex_pairs")[::7],
        jump_tol=0.3, max_refinements=2)),
    "3x3_vertex_pairs": (lambda: UnitaryGate.from_permutation(3, 3, GATE_3X3),
                         dict(max_refinements=1)),
    "3x3_diagnostic": (lambda: UnitaryGate.from_permutation(3, 3, GATE_3X3_DIAGNOSTIC),
                       dict(max_refinements=1)),
}


@pytest.mark.parametrize("case", list(CLASSIFY_CASES))
def test_classify_matches_the_per_path_loop(case):
    make_gate, kwargs = CLASSIFY_CASES[case]
    new = classify(make_gate(), **kwargs)
    ref = classify_loop(make_gate(), **kwargs)
    assert new.to_json() == ref.to_json()
    assert new.witness_digest() == ref.witness_digest()


def test_classify_matches_the_loop_with_a_failing_direction_point(monkeypatch):
    # vertex0's mixing direction toward |1> fails at its finest eps, in each
    # of the five paths that share it.
    target = np.diag([0.999, 0.001, 0.0, 0.0]).astype(complex)
    solve = discontinuity.fixed_point_set
    failed = []

    def fake(u, rho, **kwargs):
        if np.allclose(rho.matrix, target, rtol=0.0, atol=1e-15):
            failed.append(1)
            raise SolverDiagnostic("injected failure")
        return solve(u, rho, **kwargs)

    monkeypatch.setattr(discontinuity, "fixed_point_set", fake)
    new = classify(reference_gate())
    ref = classify_loop(reference_gate())
    assert len(failed) == 2  # once per side
    assert sum(p["tail_length"] == 0 for p in new.witness["paths"]) == 5
    assert new.to_json() == ref.to_json()
    assert new.witness_digest() == ref.witness_digest()
