"""Self-tests of the benchmark: each gate passes on good output and fails on bad.

    python3 -m pytest perfbench -q

Each workload runs one round at a tiny size.  A flipped verdict, an
off-by-one diagnostic count, a wrong Bloch cell or a perturbed channel
output must each fail its gate.  Takes about ten seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ctckit  # noqa: E402
import ctckit.deutsch  # noqa: E402
import ctckit.discontinuity  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def census(tmp_path, name, composition):
    composition = {(d, False): n for d, n in composition.items()}
    wl = workloads.CensusWorkload(name, composition, tmp_path, seed=5)
    wl.setup()
    return wl


def test_census_4x2_tiny_round_matches_pinned(tmp_path):
    res = census(tmp_path, "census_4x2", {0: 2}).run_round()
    assert res.problems == [] and res.failed == 0 and len(res.op_spans) == 2


def test_census_4x2_flipped_verdict_fails(tmp_path):
    wl = census(tmp_path, "census_4x2", {0: 2})
    i = wl.sample[0]
    flipped = "physical" if wl.records[i].verdict != "physical" else "ephemeral"
    wl.records[i] = wl.records[i]._replace(verdict=flipped)
    res = wl.run_round()
    assert res.failed == 1
    assert any(f"reference {flipped}" in p for p in res.problems)


def test_census_3x3_diagnostic_count_is_exact(tmp_path):
    wl = census(tmp_path, "census_3x3", {0: 1, 1: 1})
    res = wl.run_round()
    assert res.problems == [] and res.info["diagnostics"] == 1
    i = next(i for i in wl.sample if wl.records[i].diagnostics == 1)
    wl.records[i] = wl.records[i]._replace(diagnostics=2)
    res = wl.run_round()
    assert res.failed == 0
    assert any("SolverDiagnostic" in p for p in res.problems)


def test_reference_4x2_is_the_pinned_census():
    ref = workloads.load_reference("census_4x2")
    with open(ROOT / "results" / "census_sample500_seed42.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert json.loads(lines[0])["config_hash"] == ref["config_hash"]
    pinned = [json.loads(x) for x in lines[1:]]
    assert [[r["permutation"], r["verdict"], r["sigma_jump"], r["rho_hat_jump"]]
            for r in pinned] == [r[:4] for r in ref["records"]]


def bloch(tmp_path, scenarios):
    wl = workloads.BlochSliceWorkload(tmp_path, seed=11)
    wl.resolution = 21
    wl.scenarios = scenarios
    wl.setup()
    return wl


def test_bloch_slice_tiny_round(tmp_path):
    res = bloch(tmp_path, 3).run_round()
    assert res.problems == [] and res.failed == 0 and res.attempted == 4


def test_bloch_check_catches_a_wrong_cell(tmp_path):
    wl = bloch(tmp_path, 0)
    rows = [line.split(",") for line in wl.run_round().output[0].splitlines()]
    perm, rho = ctckit.REFERENCE_PERMUTATION, ctckit.reference_center().matrix.real
    assert workloads.check_bloch_csv(rows, perm, rho, paper_example=True) == []
    centre = next(r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0)
    centre[2] = "False"
    assert workloads.check_bloch_csv(rows, perm, rho, paper_example=True)


def test_channel_dense_tiny_pass_and_perturbed_reference(tmp_path):
    wl = workloads.ChannelDenseWorkload(tmp_path, seed=3)
    wl.per_dims = (2, 2, 2, 2)
    wl.setup()
    res = wl.run_round()
    assert res.problems == [] and res.failed == 0 and res.attempted == 8
    i = wl.sample[0]
    wl.expected[i] = wl.expected[i] + 1e-6
    assert wl.run_round().failed == 1


def test_tracer_sees_every_solve_and_changes_no_output(tmp_path):
    wl = census(tmp_path, "census_4x2", {0: 2})
    plain = wl.run_round()
    original = ctckit.deutsch.fixed_point_set
    tracer = Tracer(wl.op_boundary)
    with tracer:
        assert ctckit.discontinuity.fixed_point_set is not original
        traced = wl.run_round()
    assert ctckit.discontinuity.fixed_point_set is original
    assert traced.output == plain.output
    table = tracer.layer_table()
    expected = traced.info["expected_solves"] + 2 * tracer.counters["discontinuity.refinements"]
    assert table["deutsch.fixed_point_set"]["calls"] == expected
    assert table["discontinuity.classify"]["calls"] == 2
    assert set(tracer.op) >= {-1, 0, 1}


def test_tracer_counts_diagnostics_that_are_swallowed():
    import ctckit.states as states

    gate = states.UnitaryGate.from_permutation(2, 2, (1, 0, 3, 2))
    rho = states.DensityOperator.maximally_mixed(2)
    tracer = Tracer("selection.ctc_channel")
    with tracer:
        with pytest.raises(ctckit.SolverDiagnostic):
            ctckit.discontinuity.fixed_point_set(gate, rho, residual_tol=-1.0, max_iterations=64)
    assert tracer.counters["deutsch.solver_diagnostics"] == 1
    assert tracer.counters["deutsch.cesaro_iterations"] == 64


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_4x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout


def test_tail_is_the_value_with_ten_samples_above():
    import run

    values = list(np.arange(1.0, 41.0))
    assert run.tail(values) == (30.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_calibration_factor_and_busy_time_around_an_interval():
    import calibrate

    ref = calibrate.REFERENCE_MS
    cal = calibrate.Calibrator()
    cal.begins = [0.9, 1.9, 2.9, 3.9]
    cal.stamps = [1.0, 2.0, 3.0, 4.0]
    cal.kernel_ms = [ref, 2 * ref, 4 * ref, 8 * ref]
    assert cal.factor(1.5, 1.8) == 1 / 1.5      # samples ending 1.0 and 2.0
    assert cal.factor(2.5, 3.5) == 1 / 4.0      # samples ending 2.0, 3.0 and 4.0
    assert cal.factor(0.0, 0.5) == 1.0          # only the first sample follows
    assert cal.factor(4.5, 5.0) == 1 / 8.0      # only the last sample precedes
    assert cal.busy(1.0, 1.9) == 0.0
    assert abs(cal.busy(1.95, 3.0) - 0.15) < 1e-12


def test_calibrator_samples_inside_an_entered_interval():
    import time

    import calibrate

    cal = calibrate.Calibrator()
    with cal:
        start = time.perf_counter()
        while time.perf_counter() - start < 2.5 * calibrate.PERIOD_S:
            pass
        end = time.perf_counter()
    assert len(cal.stamps) >= 3 and cal.stamps[0] <= start and cal.begins[-1] >= end
    assert 0.0 < cal.busy(start, end) < end - start
