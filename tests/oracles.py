"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way — explicit
index sums, plain power iteration, one matrix or one path at a time — so
that agreement with the fast einsum/affine/stacked implementations is
meaningful evidence, not a tautology.
"""

import numpy as np

from ctckit import discontinuity
from ctckit.basis import hermitian_basis
from ctckit.deutsch import FixedPointSet, SolverDiagnostic, build_superoperator, membership
from ctckit.discontinuity import (
    DEFAULT_EPSILONS,
    JUMP_TOL,
    LIMIT_MEMBERSHIP_TOL,
    ROW_COLUMNS,
    VERDICTS,
    GateClassification,
    ProbeRecord,
    ProbeResult,
    generate_probe_families,
)
from ctckit.linalg import (
    conjugate, dagger, hermitian_trace_norm, partial_trace_1, partial_trace_2)
from ctckit.selection import select
from ctckit.states import DensityOperator


def partial_trace_1_loops(m, dim1, dim2):
    """Trace out the first factor with explicit index loops."""
    m = np.asarray(m).reshape(dim1, dim2, dim1, dim2)
    out = np.zeros((dim2, dim2), dtype=complex)
    for i in range(dim2):
        for j in range(dim2):
            for a in range(dim1):
                out[i, j] += m[a, i, a, j]
    return out


def partial_trace_2_loops(m, dim1, dim2):
    """Trace out the second factor with explicit index loops."""
    m = np.asarray(m).reshape(dim1, dim2, dim1, dim2)
    out = np.zeros((dim1, dim1), dtype=complex)
    for i in range(dim1):
        for j in range(dim1):
            for a in range(dim2):
                out[i, j] += m[i, a, j, a]
    return out


def deutsch_map_direct(u_matrix, rho, sigma, dim1, dim2):
    """One round trip of the loop state: sigma -> Tr_1(U (rho ⊗ sigma) U+)."""
    joint = np.kron(rho, sigma)
    evolved = u_matrix @ joint @ u_matrix.conj().T
    return partial_trace_1_loops(evolved, dim1, dim2)


def cesaro_fixed_point(u_matrix, rho, dim1, dim2, epochs=200, iters_per_epoch=500,
                       tol=1e-11):
    """Fixed point by long-run averaging of the iterated loop map.

    Starts from the maximally mixed state and repeatedly applies the map,
    keeping a running (Cesàro) mean of the trajectory.  The mean of each
    epoch is fed back in as the next starting point, which converges even
    when the map itself only cycles.  Returns the first epoch mean whose
    image under the map is within ``tol`` in trace distance, or the last
    epoch mean if none qualifies.
    """
    sigma = np.eye(dim2, dtype=complex) / dim2
    best = sigma
    for _ in range(epochs):
        acc = np.zeros((dim2, dim2), dtype=complex)
        cur = sigma
        for _ in range(iters_per_epoch):
            cur = deutsch_map_direct(u_matrix, rho, cur, dim1, dim2)
            acc += cur
        mean = acc / iters_per_epoch
        mean = 0.5 * (mean + mean.conj().T)
        mean /= np.trace(mean).real
        best = mean
        gap = mean - deutsch_map_direct(u_matrix, rho, mean, dim1, dim2)
        if 0.5 * np.abs(np.linalg.eigvalsh(gap)).sum() < tol:
            return mean
        sigma = mean
    return best


def trace_distance_direct(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum()


def random_density(rng, dim):
    """Full-rank random density matrix (Ginibre normalized)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim):
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# Loop versions of the batched solver core.  They do the same floating-point
# operations in the same order as the batched code, one matrix at a time, so
# the two must agree bit for bit, not just to a tolerance.


def gell_mann_loop(dim):
    """Generalized Gell-Mann matrices built one matrix at a time."""
    out = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            out.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j / np.sqrt(2.0)
            m[k, j] = 1.0j / np.sqrt(2.0)
            out.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[range(l), range(l)] = 1.0
        m[l, l] = -float(l)
        out.append(m / np.sqrt(l * (l + 1)))
    return out


def traceless_coords_loop(basis, m):
    """``x_i = Tr(m B_i)``, one trace per traceless element."""
    return np.array([np.trace(m @ b).real for b in basis.traceless])


def from_traceless_loop(basis, x, trace=1.0):
    """``trace I / d + sum_i x_i B_i``, accumulated one term at a time; a
    stack ``(..., n)`` of coordinates one row at a time."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        mats = [from_traceless_loop(basis, row, trace=trace) for row in x]
        return np.array(mats).reshape(x.shape[:-1] + (basis.dim, basis.dim))
    m = (trace / basis.dim) * np.eye(basis.dim, dtype=complex)
    for xi, b in zip(x, basis.traceless):
        m = m + xi * b
    return m


def build_superoperator_loop(u, rho):
    """``(linear, offset)`` of the induced map, imaging one input at a time."""
    d1, d2 = u.dim1, u.dim2
    b2 = hermitian_basis(d2)
    n = b2.n_traceless

    def image_coords(m):
        joint = np.kron(rho.matrix, m)
        if u.permutation is not None:
            inv = np.argsort(np.asarray(u.permutation))
            w = joint[np.ix_(inv, inv)]
        else:
            w = u.matrix @ joint @ dagger(u.matrix)
        return traceless_coords_loop(b2, partial_trace_1(w, d1, d2))

    offset = image_coords(np.eye(d2, dtype=complex) / d2)
    linear = np.empty((n, n))
    for j, bj in enumerate(b2.traceless):
        linear[:, j] = image_coords(bj)
    return linear, offset


def superoperators_loop(u, rhos):
    """``(linears, offsets)`` of a state stack, one ``build_superoperator_loop`` each."""
    maps = [build_superoperator_loop(u, DensityOperator(m)) for m in rhos]
    return np.array([linear for linear, _ in maps]), np.array([offset for _, offset in maps])


# The fixed-point solver as it was before its candidates became one loop: a
# ``consider`` closure tracks the best candidate through ``nonlocal`` state,
# the accepted state is rebuilt and validated again, and the pseudoinverse
# for membership comes from a second SVD.  Its constants are copied here, so
# the reference stays put when the package's constants change.

_SV_TOL = 1e-9
_EIG_SLACK = 5e-13
_EARLY_RESIDUAL = 1e-12
_CHECK_EVERY = 64


def _truncated_pinv_ref(a):
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > _SV_TOL))
    if rank == 0:
        pinv = np.zeros_like(a.T)
    else:
        pinv = vt[:rank].T @ np.diag(1.0 / s[:rank]) @ u[:, :rank].T
    return s, vt, rank, pinv


def _canonical_sign_ref(v, tol=1e-12):
    for vi in v:
        if abs(vi) > tol:
            return v if vi > 0 else -v
    return v


def fixed_point_set_ref(u, rho, residual_tol=1e-10, max_iterations=100_000):
    """``deutsch.fixed_point_set`` before its rewrite, for ``dim2 >= 2``."""
    aff = build_superoperator(u, rho)
    d2 = u.dim2
    b2 = hermitian_basis(d2)
    n = b2.n_traceless
    warnings = []

    a = aff.linear - np.eye(n)
    c = aff.offset
    s, vt, rank, a_pinv = _truncated_pinv_ref(a)
    k = n - rank

    gray = s[(s > _SV_TOL / 10) & (s < _SV_TOL * 10)]
    if gray.size:
        warnings.append(
            f"singular values {gray.tolist()} lie within a decade of the cutoff {_SV_TOL}"
        )

    null_basis = [_canonical_sign_ref(vt[rank + i]) for i in range(k)]
    basis_mats = [b2.from_traceless(v, trace=0.0) for v in null_basis]

    def refine(y):
        return y - a_pinv @ (a @ y + c)

    def assess(x):
        m = b2.from_traceless(x)
        lo = float(np.min(np.linalg.eigvalsh(m)))
        td = 0.5 * hermitian_trace_norm(b2.from_traceless(aff.apply(x)) - m)
        return lo, td

    best = None

    def consider(x):
        nonlocal best
        lo, td = assess(x)
        key = (max(0.0, -lo), td)
        if best is None or key < best[0]:
            best = key, x, lo, td
        if lo >= -_EIG_SLACK and td <= _EARLY_RESIDUAL:
            return x, lo, td
        return None

    iterations = 0
    accepted = consider(refine(np.zeros(n)))
    if accepted is None:
        linear, offset = aff.linear, aff.offset
        x = np.zeros(n)
        mean = np.zeros(n)
        for i in range(1, max_iterations + 1):
            x = linear @ x + offset
            mean += (x - mean) / i
            if i % _CHECK_EVERY == 0 or i == max_iterations:
                accepted = consider(refine(mean))
                if accepted is None:
                    accepted = consider(mean.copy())
                if accepted is not None:
                    iterations = i
                    break
        if accepted is None:
            iterations = max_iterations
            _, x0, lo, td = best
            if lo < -1e-10 or td > residual_tol:
                raise SolverDiagnostic(
                    f"no fixed-point candidate within tolerance after {iterations} "
                    f"iterations (min eigenvalue {lo:.3e}, residual {td:.3e})"
                )
            warnings.append(
                f"slow convergence: accepted candidate with residual {td:.3e} "
                f"after {iterations} iterations"
            )
            accepted = x0, lo, td

    x0, lo, td = accepted
    if td > residual_tol:
        raise SolverDiagnostic(f"fixed-point residual {td:.3e} exceeds {residual_tol}")
    try:
        particular = DensityOperator(b2.from_traceless(x0))
    except ValueError as exc:
        raise SolverDiagnostic(f"fixed-point candidate failed validation: {exc}") from exc

    return FixedPointSet(
        dim2=d2,
        particular=particular,
        basis=basis_mats,
        k=k,
        affine=aff,
        affine_gap=a,
        affine_pinv=_truncated_pinv_ref(aff.linear - np.eye(aff.offset.size))[3],
        residuals={
            "map_trace_distance": td,
            "affine_norm": float(np.linalg.norm(a @ x0 + c)),
            "min_eigenvalue": lo,
            "iterations": iterations,
        },
        warnings=warnings,
    )


# The per-path loop that ``discontinuity.classify`` replaced.  Every
# direction point is solved, selected and emitted on its own, with the joint
# state built by ``np.kron``, and every center is solved; every running jump
# is one trace distance and every limit is tested for membership once per
# path.  ``fixed_point_set`` is looked up on ``discontinuity`` at call time,
# so a patched solver reaches this loop too.


def _sandwich_kron(u, rho, sigma):
    return conjugate(u.matrix, np.kron(rho.matrix, sigma.matrix), permutation=u.permutation)


def deutsch_map_kron(u, rho, sigma):
    """``deutsch_map`` with the joint state built by ``np.kron``."""
    return DensityOperator(partial_trace_1(_sandwich_kron(u, rho, sigma), u.dim1, u.dim2))


def evolve_out_kron(u, rho, sigma):
    """``evolve_out`` with the joint state built by ``np.kron``."""
    return DensityOperator(partial_trace_2(_sandwich_kron(u, rho, sigma), u.dim1, u.dim2))


def _probe_loop(u, fam, eps, rule, solved):
    def solve(state):
        fps = discontinuity.fixed_point_set(u, state)
        sel = select(fps, rule)
        return fps, sel, evolve_out_kron(u, state, sel.sigma)

    if fam.center not in solved:
        solved[fam.center] = discontinuity.fixed_point_set(u, fam.center)
    records = []
    for name, direction in (("a", fam.family_a), ("b", fam.family_b)):
        for e in eps:
            key = (direction, e)
            if key not in solved:
                try:
                    fps, sel, rho_hat = solve(direction(e))
                    solved[key] = (fps.k, sel.sigma, sel.entropy, rho_hat, None)
                except SolverDiagnostic as exc:
                    solved[key] = (None, None, None, None, str(exc))
            records.append(ProbeRecord(name, e, *solved[key]))
    return ProbeResult(fam.label, solved[fam.center], records)


def _analyze_path_loop(result, jump_tol):
    rows, tail = [], []
    for eps, ra, rb in result.pairs():
        row = dict(zip(ROW_COLUMNS, (eps, ra.k, rb.k, None, None, ra.entropy, rb.entropy)))
        both_solved = ra.error is None and rb.error is None
        if both_solved:
            row["sigma_jump_running"] = float(
                trace_distance_direct(ra.sigma.matrix, rb.sigma.matrix))
            row["rho_hat_jump_running"] = float(
                trace_distance_direct(ra.rho_hat.matrix, rb.rho_hat.matrix))
        rows.append(row)
        if both_solved and ra.k == 0 and rb.k == 0:
            tail.append((row, ra, rb))
        else:
            tail = []

    notes = []
    verdict = "continuous_witnessed_none"
    sigma_jump = max((r["sigma_jump_running"] or 0.0 for r in rows), default=0.0)
    rho_hat_jump = 0.0
    limits_in_set = None
    near_threshold = False
    if len(tail) >= 2:
        row, ra, rb = tail[-1]
        sigma_jump = row["sigma_jump_running"]
        rho_hat_jump = row["rho_hat_jump_running"]
        member_a = membership(result.center_fps, ra.sigma, tol=LIMIT_MEMBERSHIP_TOL)
        member_b = membership(result.center_fps, rb.sigma, tol=LIMIT_MEMBERSHIP_TOL)
        limits_in_set = [member_a.ok, member_b.ok]
        near_threshold = (
            jump_tol / 2 < sigma_jump < 2 * jump_tol
            or jump_tol / 2 < rho_hat_jump < 2 * jump_tol
        )
        if sigma_jump > jump_tol and member_a.ok and member_b.ok:
            verdict = "ephemeral"
            if rho_hat_jump > jump_tol:
                verdict = "physical"
        elif sigma_jump > jump_tol:
            notes.append(
                "directional limits differ but do not both lie in the "
                "center fixed-point set; not counted as a witness"
            )
    else:
        notes.append("no qualifying tail: directions did not both pin unique fixed states")
    return {
        "label": result.label,
        "verdict": verdict,
        "sigma_jump": sigma_jump,
        "rho_hat_jump": rho_hat_jump,
        "center_k": result.center_fps.k,
        "tail_length": len(tail),
        "limits_in_set": limits_in_set,
        "near_threshold": near_threshold,
        "notes": notes,
        "rows": rows,
    }


def classify_loop(u, strategy="vertex_pairs", families=None, epsilons=DEFAULT_EPSILONS,
                  jump_tol=JUMP_TOL, rule=None, max_refinements=2):
    """``discontinuity.classify`` one family at a time, refining each in turn."""
    base_eps = sorted({float(e) for e in epsilons}, reverse=True)
    strategy_name = strategy if families is None else "user_paths"
    if families is None:
        families = generate_probe_families(u, strategy)
    analyses = []
    refinements_used = 0
    solved = {}
    for fam in families:
        eps = list(base_eps)
        analysis = _analyze_path_loop(_probe_loop(u, fam, eps, rule, solved), jump_tol)
        while analysis["near_threshold"] and refinements_used < max_refinements:
            eps.append(min(eps) / 10.0)
            refinements_used += 1
            analysis = _analyze_path_loop(_probe_loop(u, fam, eps, rule, solved), jump_tol)
        analyses.append(analysis)
    rank = {v: i for i, v in enumerate(VERDICTS)}
    best = max(analyses, key=lambda a: (rank[a["verdict"]], a["rho_hat_jump"], a["sigma_jump"]))
    return GateClassification(
        verdict=best["verdict"],
        sigma_jump=best["sigma_jump"],
        rho_hat_jump=best["rho_hat_jump"],
        witness={
            "strategy": strategy_name,
            "jump_tol": jump_tol,
            "limit_membership_tol": LIMIT_MEMBERSHIP_TOL,
            "epsilons": base_eps,
            "refinements_used": refinements_used,
            "best_path": best["label"],
            "paths": analyses,
        },
    )
