"""End-to-end acceptance checks for the package.

Each numbered test verifies one shipped guarantee at its stated tolerance
and records a one-line ``[PASS]``/``[FAIL]`` verdict; conftest echoes the
collected lines in a terminal section after the run, where output capture
cannot swallow them.

The census-band check (criterion 8) re-runs the full pinned 500-gate
census from scratch and regression-compares against the committed results
under ``results/``; it dominates the runtime of this module.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from ctckit.census import CensusConfig, run_census, summarize
from ctckit.cli import main as cli_main
from ctckit.deutsch import deutsch_map, fixed_point_set
from ctckit.reference import (
    mixed_first_qubit,
    mixed_second_qubit,
    reference_center,
    reference_gate,
)
from ctckit.selection import _MAX_ITERS, _optimize, ctc_channel, sample_feasible
from ctckit.states import (
    DensityOperator,
    UnitaryGate,
    trace_distance,
    von_neumann_entropy,
)

from oracles import (
    cesaro_fixed_point,
    random_density,
    random_unitary,
    trace_distance_direct,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
PINNED_CENSUS = RESULTS_DIR / "census_sample500_seed42.jsonl"
PINNED_SUMMARY = RESULTS_DIR / "census_sample500_seed42_summary.json"

EPS_GRID = (0.5, 0.1, 0.01, 0.001)

VERDICT_LINES = []


def verdict(num, desc, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d}: {desc}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    return ok


def test_01_golden_fixed_point_sets():
    u = reference_gate()
    failures = []
    slowest = 0.0
    for eps in EPS_GRID:
        t0 = time.perf_counter()
        fps_a = fixed_point_set(u, mixed_second_qubit(eps))
        slowest = max(slowest, time.perf_counter() - t0)
        if fps_a.k != 0:
            failures.append(f"A eps={eps}: k={fps_a.k}")
        err_a = trace_distance(fps_a.particular.matrix, np.eye(2) / 2)
        if err_a > 1e-8:
            failures.append(f"A eps={eps}: err={err_a:.2e}")

        t0 = time.perf_counter()
        fps_c = fixed_point_set(u, mixed_first_qubit(eps))
        slowest = max(slowest, time.perf_counter() - t0)
        if fps_c.k != 0:
            failures.append(f"C eps={eps}: k={fps_c.k}")
        err_c = trace_distance(fps_c.particular.matrix, np.diag([1.0, 0.0]))
        if err_c > 1e-8:
            failures.append(f"C eps={eps}: err={err_c:.2e}")

    t0 = time.perf_counter()
    fps_b = fixed_point_set(u, reference_center())
    slowest = max(slowest, time.perf_counter() - t0)
    if fps_b.k != 1:
        failures.append(f"B: k={fps_b.k}")
    else:
        off_axis = max(abs(fps_b.basis[0][0, 1]), abs(fps_b.basis[0][1, 0]))
        if off_axis > 1e-9:
            failures.append(f"B: off-axis={off_axis:.2e}")
    if slowest >= 1.0:
        failures.append(f"slowest solve {slowest:.2f}s")

    ok = verdict(1, "golden fixed-point sets (unique centers, z-axis freedom)", not failures)
    assert ok, failures


def test_02_output_state_formulas():
    u = reference_gate()
    failures = []
    for eps in EPS_GRID:
        out_a, _ = ctc_channel(u, mixed_second_qubit(eps))
        got_a = out_a.matrix[0, 0].real
        if abs(got_a - (1 - eps) / 2) > 1e-8:
            failures.append(f"A eps={eps}: (rho_hat)_11={got_a}")
        out_c, _ = ctc_channel(u, mixed_first_qubit(eps))
        got_c = out_c.matrix[0, 0].real
        if abs(got_c - eps) > 1e-8:
            failures.append(f"C eps={eps}: (rho_hat)_11={got_c}")
    ok = verdict(2, "output formulas (rho_hat)_11 = (1-eps)/2 and eps", not failures)
    assert ok, failures


def test_03_paper_example_classification(capsys):
    t0 = time.perf_counter()
    code = cli_main(["classify", "--paper-example"])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and report["verdict"] == "physical"
        and report["rho_hat_jump"] >= 0.4
        and elapsed < 10.0
    )
    verdict(3, f"classify --paper-example -> physical, jump "
               f"{report['rho_hat_jump']:.3f} in {elapsed:.1f}s", ok)
    assert ok, report


def test_04_component_equation_oracle():
    """Image components of the loop map against the closed-form expressions
    for the reference gate acting on product inputs."""
    u = reference_gate()
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(100):
        ra = random_density(rng, 2)
        rb = random_density(rng, 2)
        s = random_density(rng, 2)
        rho = DensityOperator(np.kron(ra, rb))
        img = deutsch_map(u, rho, DensityOperator(s)).matrix
        rhs_11 = rb[0, 0] + ra[0, 0] * (2 * rb[0, 0] - 1) * (s[0, 0] - 1)
        rhs_12 = (
            rb[0, 0] * ra[1, 0] * s[0, 1]
            + ra[0, 0] * rb[1, 1] * s[1, 0]
            + rb[0, 1] * (s[1, 1] * ra[1, 1] + ra[0, 1] * s[0, 0])
        )
        worst = max(worst, abs(img[0, 0] - rhs_11), abs(img[0, 1] - rhs_12))
    ok = verdict(4, f"component equations on 100 product inputs (worst {worst:.1e})",
                 worst <= 1e-12)
    assert ok, worst


def test_05_fixed_point_existence():
    rng = np.random.default_rng(50)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        dims = (2, 2) if i % 2 == 0 else (4, 2)
        u = UnitaryGate(random_unitary(rng, dims[0] * dims[1]), *dims)
        rho = DensityOperator(random_density(rng, dims[0]))
        fps = fixed_point_set(u, rho)
        moved = deutsch_map(u, rho, fps.particular)
        worst = max(worst, trace_distance(moved.matrix, fps.particular.matrix))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    verdict(5, f"200 random unitaries: worst residual {worst:.1e} in {elapsed:.1f}s", ok)
    assert ok, (worst, elapsed)


def test_06_max_entropy_uniqueness():
    rng = np.random.default_rng(2026)
    scenarios = []
    while len(scenarios) < 50:
        p = tuple(int(i) for i in rng.permutation(8))
        v = int(rng.integers(0, 4))
        fps = fixed_point_set(
            UnitaryGate.from_permutation(4, 2, p), DensityOperator.basis_state(4, v)
        )
        if fps.k >= 1:
            scenarios.append(fps)

    worst_spread = 0.0
    worst_margin = np.inf
    for i, fps in enumerate(scenarios):
        local = np.random.default_rng(1000 + i)
        sols = [_optimize(fps, _MAX_ITERS, +1.0, start=sample_feasible(fps, local))
                for _ in range(10)]
        mats = [s.sigma.matrix for s in sols]
        worst_spread = max(
            worst_spread, max(trace_distance(mats[0], m) for m in mats[1:])
        )
        best = max(s.entropy for s in sols)
        for _ in range(100):
            other = fps.state_at(sample_feasible(fps, local))
            worst_margin = min(worst_margin, best - von_neumann_entropy(other.matrix))
    ok = worst_spread <= 1e-6 and worst_margin > -1e-8
    verdict(6, f"50 degenerate sets: start spread {worst_spread:.1e}, "
               f"margin over samples {worst_margin:.1e}", ok)
    assert ok, (worst_spread, worst_margin)


def test_07_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    n = 0
    while n < 100:
        dims = (2, 2) if n % 2 == 0 else (4, 2)
        u = UnitaryGate(random_unitary(rng, dims[0] * dims[1]), *dims)
        rho = DensityOperator(random_density(rng, dims[0]))
        fps = fixed_point_set(u, rho)
        if fps.k != 0:
            continue  # the oracle converges to *a* member; compare unique sets only
        oracle = cesaro_fixed_point(u.matrix, rho.matrix, *dims)
        worst = max(worst, trace_distance_direct(fps.particular.matrix, oracle))
        n += 1
    ok = verdict(7, f"affine solve vs iterate-and-average oracle (worst {worst:.1e})",
                 worst <= 1e-8)
    assert ok, worst


def test_08_census_bands(tmp_path):
    pinned_header = json.loads(PINNED_CENSUS.open().readline())
    config = CensusConfig.from_json(
        dict(pinned_header["config"], out_path=str(tmp_path / "census.jsonl"))
    )
    t0 = time.perf_counter()
    fresh = run_census(config)
    elapsed = time.perf_counter() - t0

    pinned = json.loads(PINNED_SUMMARY.read_text())
    s = fresh.to_json()
    in_time = elapsed < 1800.0
    hash_stable = pinned_header["config_hash"] == config.config_hash()
    matches_pinned = s == pinned
    phys_band = 0.35 <= s["fraction_physical"] <= 0.60
    eph_band = 0.55 <= s["fraction_ephemeral_or_physical"] <= 0.80
    ok = in_time and hash_stable and matches_pinned and phys_band and eph_band
    verdict(8, f"census fractions physical={s['fraction_physical']:.3f} "
               f"(band [0.35,0.60]), eph-or-phys="
               f"{s['fraction_ephemeral_or_physical']:.3f} (band [0.55,0.80]) "
               f"in {elapsed:.0f}s", ok)
    assert in_time, f"census took {elapsed:.0f}s"
    assert hash_stable, "census semantics drifted from the pinned run"
    assert matches_pinned, f"regression against pinned summary: {s} != {pinned}"
    assert phys_band, f"fraction_physical {s['fraction_physical']} outside [0.35, 0.60]"
    assert eph_band, (
        f"fraction_ephemeral_or_physical {s['fraction_ephemeral_or_physical']} "
        f"outside [0.55, 0.80]"
    )


def test_09_census_restart_equivalence(tmp_path):
    base = dict(dim1=4, dim2=2, mode="sample", sample_size=12, seed=4242)
    full_cfg = CensusConfig(**base, out_path=str(tmp_path / "full.jsonl"))
    full = run_census(full_cfg)

    cut_cfg = CensusConfig(**base, out_path=str(tmp_path / "cut.jsonl"))
    interrupted = run_census(cut_cfg)
    rng = np.random.default_rng(99)
    for cut in sorted(rng.integers(1, 12, size=3), reverse=True):
        lines = open(cut_cfg.out_path).read().splitlines(keepends=True)
        kept = lines[: 1 + int(cut)]
        kept.append(lines[1 + int(cut)][: 20])  # partially written next record
        with open(cut_cfg.out_path, "w") as fh:
            fh.writelines(kept)
        interrupted = run_census(cut_cfg, resume=True)

    strip = lambda l: {k: v for k, v in json.loads(l).items() if k != "wall_time"}
    same_records = (
        [strip(l) for l in open(full_cfg.out_path).readlines()[1:]]
        == [strip(l) for l in open(cut_cfg.out_path).readlines()[1:]]
    )
    ok = interrupted.to_json() == full.to_json() and same_records
    verdict(9, "census interrupted at 3 points resumes to the identical summary", ok)
    assert ok


def test_10_bloch_slice_fidelity(tmp_path, capsys):
    dest = tmp_path / "slice.csv"
    code = cli_main(["bloch-slice", "--paper-example", "--out", str(dest)])
    capsys.readouterr()
    rows = list(csv.reader(dest.open()))
    body = rows[1:]
    half_step = 1.0 / (201 - 1)  # grid step 0.01 on [-1, 1]
    mislabeled = []
    for r in body:
        x = float(r[0])
        z = float(r[1])
        expected = abs(x) <= half_step / 2 and x * x + z * z <= 1.0 + 1e-12
        if (r[2] == "True") != expected:
            mislabeled.append((x, z, r[2]))
    n_members = sum(1 for r in body if r[2] == "True")
    ok = (
        code == 0
        and len(body) == 201 * 201
        and not mislabeled
        and n_members == 201
    )
    verdict(10, f"Bloch slice marks exactly the z-axis column ({n_members} cells)", ok)
    assert ok, mislabeled[:5]
