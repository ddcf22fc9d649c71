"""Command-line interface: scenario files, subcommands, exit codes, CSV shapes.

Exit code contract: 0 success, 2 input error, 3 numerical diagnostic.
"""

import csv
import json

import numpy as np
import pytest

from ctckit.cli import main
from ctckit.deutsch import SolverDiagnostic


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def ref_gate_obj():
    return {"dim1": 4, "dim2": 2, "perm": [4, 1, 3, 2, 0, 6, 5, 7]}


def qubit_matrix(diag):
    return {"rows": 2, "cols": 2, "re": [diag[0], 0, 0, diag[1]], "im": [0, 0, 0, 0]}


def scenario_a(tmp_path, eps=0.1):
    """Reference gate, system = |0><0| ⊗ diag(1-eps, eps), in product form."""
    return write_json(tmp_path / "a.json", {
        "gate": ref_gate_obj(),
        "rho": {"product": [qubit_matrix([1, 0]), qubit_matrix([1 - eps, eps])]},
    })


def scenario_identity(tmp_path):
    return write_json(tmp_path / "i.json", {
        "gate": {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]},
        "rho": {"rows": 2, "cols": 2, "re": [0.7, 0.2, 0.2, 0.3], "im": [0, 0, 0, 0]},
    })


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFixedPoints:
    def test_reference_scenario(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixed-points", "--scenario", scenario_a(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 0
        diag = report["particular"]["re"]
        assert diag[0] == pytest.approx(0.5, abs=1e-9)

    def test_identity_gate_has_full_freedom(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixed-points", "--scenario", scenario_identity(tmp_path))
        assert code == 0
        assert json.loads(out)["k"] == 3  # dim2**2 - 1

    def test_out_flag_writes_report(self, capsys, tmp_path):
        dest = tmp_path / "fps.json"
        code, out, _ = run(capsys, "fixed-points", "--scenario", scenario_a(tmp_path),
                           "--out", str(dest))
        assert code == 0
        assert json.loads(dest.read_text()) == json.loads(out)


class TestEvolve:
    def test_mixed_second_qubit_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "evolve", "--scenario", scenario_a(tmp_path, 0.1))
        assert code == 0
        report = json.loads(out)
        assert report["rho_hat"]["re"][0] == pytest.approx(0.45, abs=1e-9)
        assert report["selection"]["converged"] is True

    def test_mixed_first_qubit_output(self, capsys, tmp_path):
        scen = write_json(tmp_path / "c.json", {
            "gate": ref_gate_obj(),
            "rho": {"product": [qubit_matrix([0.9, 0.1]), qubit_matrix([1, 0])]},
        })
        code, out, _ = run(capsys, "evolve", "--scenario", scen)
        assert code == 0
        assert json.loads(out)["rho_hat"]["re"][0] == pytest.approx(0.1, abs=1e-9)

    def test_identity_gate_returns_input(self, capsys, tmp_path):
        code, out, _ = run(capsys, "evolve", "--scenario", scenario_identity(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["rho_hat"]["re"] == pytest.approx([0.7, 0.2, 0.2, 0.3], abs=1e-9)

    def test_rule_flag_overrides_the_scenario_kind(self, capsys, tmp_path):
        scen = write_json(tmp_path / "k.json", {
            "gate": {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]},
            "rho": qubit_matrix([1, 0]),
            "rule": {"kind": "max-entropy"},
        })
        for command in ("select", "evolve"):
            code, out, _ = run(capsys, command, "--scenario", scen, "--rule", "min-entropy")
            assert code == 0
            assert json.loads(out)["entropy"] < 1e-7

    def test_rule_flag_overrides(self, capsys, tmp_path):
        code, out, _ = run(capsys, "evolve", "--scenario", scenario_identity(tmp_path),
                           "--rule", "min-entropy")
        assert code == 0
        assert json.loads(out)["entropy"] < 1e-7


class TestSelect:
    def test_scenario_rule_block(self, capsys, tmp_path):
        scen = write_json(tmp_path / "s.json", {
            "gate": {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]},
            "rho": qubit_matrix([0.5, 0.5]),
            "rule": {"kind": "constant", "coordinates": [0.0, 0.0, 0.3]},
        })
        code, out, _ = run(capsys, "select", "--scenario", scen)
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 3
        # z coordinate 0.3 in the orthonormal basis scales by 1/sqrt(2)
        z = report["sigma"]["re"][0] - report["sigma"]["re"][3]
        assert z == pytest.approx(2 * 0.3 / np.sqrt(2), abs=1e-9)


def test_selection_non_convergence_exits_3(capsys, tmp_path):
    scen = write_json(tmp_path / "n.json", {
        "gate": ref_gate_obj(),
        "rho": {"product": [qubit_matrix([1, 0]), qubit_matrix([1, 0])]},
        "rule": {"kind": "min_entropy", "max_iters": 1},
    })
    code, out, _ = run(capsys, "select", "--scenario", scen)
    assert code == 3 and json.loads(out)["converged"] is False
    code, out, err = run(capsys, "evolve", "--scenario", scen)
    assert code == 3 and json.loads(out)["selection"]["converged"] is False
    assert "selection did not converge" in err


@pytest.mark.parametrize("command", ["fixed-points", "select"])
def test_solver_diagnostic_exits_3(capsys, tmp_path, monkeypatch, command):
    def diagnose(u, rho):
        raise SolverDiagnostic("injected")

    monkeypatch.setattr("ctckit.cli.fixed_point_set", diagnose)
    code, _, err = run(capsys, command, "--scenario", scenario_a(tmp_path))
    assert code == 3
    assert "numerical diagnostic: injected" in err


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fixed-points", "--scenario", "/no/such/file.json")
        assert code == 2 and "cannot read" in err

    def test_invalid_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "fixed-points", "--scenario", str(p))
        assert code == 2 and "not valid JSON" in err

    def test_dim_mismatch(self, capsys, tmp_path):
        scen = write_json(tmp_path / "mm.json", {
            "gate": ref_gate_obj(), "rho": qubit_matrix([1, 0]),
        })
        code, _, err = run(capsys, "evolve", "--scenario", scen)
        assert code == 2 and "does not match" in err

    def test_unknown_rule_name(self, capsys, tmp_path):
        scen = write_json(tmp_path / "r.json", {
            "gate": {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]},
            "rho": qubit_matrix([1, 0]),
            "rule": {"kind": "loudest"},
        })
        code, _, err = run(capsys, "select", "--scenario", scen)
        assert code == 2 and "unknown selection rule" in err

    def test_rule_block_is_ignored_where_no_rule_applies(self, capsys, tmp_path):
        scen = write_json(tmp_path / "r.json", {
            "gate": {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]},
            "rho": qubit_matrix([1, 0]),
            "rule": {"kind": "loudest"},
        })
        assert run(capsys, "fixed-points", "--scenario", scen)[0] == 0
        assert run(capsys, "bloch-slice", "--scenario", scen, "--resolution", "3")[0] == 0

    def test_nan_rho(self, capsys, tmp_path):
        scen = write_json(tmp_path / "nan.json", {
            "gate": {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]},
            "rho": qubit_matrix([float("nan"), float("nan")]),
        })
        code, _, err = run(capsys, "fixed-points", "--scenario", scen)
        assert code == 2 and "bad rho" in err

    def test_non_unitary_gate(self, capsys, tmp_path):
        scen = write_json(tmp_path / "g.json", {
            "gate": {"dim1": 2, "dim2": 1, "perm": [0, 0]},
            "rho": qubit_matrix([1, 0]),
        })
        code, _, err = run(capsys, "fixed-points", "--scenario", scen)
        assert code == 2 and "bad gate" in err

    def test_bad_epsilons_list(self, capsys):
        code, _, err = run(capsys, "classify", "--paper-example",
                           "--epsilons", "0.2,zero")
        assert code == 2

    def test_probe_requires_a_gate_source(self, capsys):
        code, _, err = run(capsys, "probe")
        assert code == 2 and "provide" in err


class TestProbeCommand:
    def test_csv_row_per_eps_per_direction(self, tmp_path, capsys):
        dest = tmp_path / "probe.csv"
        code, _, _ = run(capsys, "probe", "--paper-example",
                         "--epsilons", "0.2,0.1,0.05", "--out", str(dest))
        assert code == 0
        rows = list(csv.reader(dest.open()))
        assert rows[0] == ["path", "direction", "epsilon", "k", "entropy",
                           "sigma", "rho_hat"]
        body = rows[1:]
        assert len(body) == 1 + 3 * 2  # center row + eps grid x two directions
        sigma = json.loads(body[1][5])
        assert sigma["rows"] == 2
        ks = {r[3] for r in body if r[1] != "center"}
        assert ks == {"0"}

    def test_stdout_when_no_out_flag(self, capsys):
        code, out, _ = run(capsys, "probe", "--paper-example", "--epsilons", "0.2,0.1")
        assert code == 0
        assert out.splitlines()[0].startswith("path,direction,epsilon")


    def test_each_probe_point_is_solved_once(self, tmp_path, capsys, monkeypatch):
        from ctckit import discontinuity

        calls = []
        original = discontinuity.fixed_point_set

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(discontinuity, "fixed_point_set", counted)
        gate = write_json(tmp_path / "g.json", ref_gate_obj())
        code, _, _ = run(capsys, "probe", "--gate", gate, "--strategy", "vertex_pairs",
                         "--out", str(tmp_path / "p.csv"))
        assert code == 0
        # 4 vertices: one center plus 6 directions on 5 grid points each
        assert len(calls) == 4 * (1 + 6 * 5)


class TestClassifyCommand:
    def test_paper_example_verdict(self, capsys):
        code, out, _ = run(capsys, "classify", "--paper-example")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "physical"
        assert report["rho_hat_jump"] > 0.4

    def test_witness_csv(self, tmp_path, capsys):
        dest = tmp_path / "w.csv"
        code, _, _ = run(capsys, "classify", "--paper-example", "--out", str(dest))
        assert code == 0
        rows = list(csv.reader(dest.open()))
        assert rows[0][:3] == ["epsilon", "k_a", "k_b"]
        assert len(rows) > 2

    def test_gate_file_input(self, tmp_path, capsys):
        gate = write_json(tmp_path / "g.json", {"dim1": 2, "dim2": 2,
                                                "perm": [0, 1, 2, 3]})
        code, out, _ = run(capsys, "classify", "--gate", gate,
                           "--strategy", "vertex_pairs")
        assert code == 0
        assert json.loads(out)["verdict"] == "continuous_witnessed_none"


class TestCensusCommand:
    def test_run_and_summary_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive",
            "out_path": str(tmp_path / "rec.jsonl"),
        })
        summary_csv = tmp_path / "sum.csv"
        code, out, _ = run(capsys, "census", "--config", cfg,
                           "--summary-csv", str(summary_csv))
        assert code == 0
        assert json.loads(out)["total"] == 2
        rows = list(csv.reader(summary_csv.open()))
        assert rows[0][0] == "total" and rows[1][0] == "2"

    def test_existing_file_needs_resume(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive",
            "out_path": str(tmp_path / "rec.jsonl"),
        })
        assert run(capsys, "census", "--config", cfg)[0] == 0
        code, _, err = run(capsys, "census", "--config", cfg)
        assert code == 2 and "resume" in err
        assert run(capsys, "census", "--config", cfg, "--resume")[0] == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_an_input_error(self, tmp_path, capsys, workers):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive",
            "out_path": str(tmp_path / "rec.jsonl"),
        })
        code, _, err = run(capsys, "census", "--config", cfg, "--workers", workers)
        assert code == 2 and "workers" in err
        assert not (tmp_path / "rec.jsonl").exists()

    def test_out_override(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive",
            "out_path": str(tmp_path / "ignored.jsonl"),
        })
        dest = tmp_path / "actual.jsonl"
        code, _, _ = run(capsys, "census", "--config", cfg, "--out", str(dest))
        assert code == 0
        assert dest.exists() and not (tmp_path / "ignored.jsonl").exists()


class TestBlochSlice:
    def test_paper_example_membership_column(self, tmp_path, capsys):
        dest = tmp_path / "slice.csv"
        code, _, _ = run(capsys, "bloch-slice", "--paper-example",
                         "--resolution", "41", "--out", str(dest))
        assert code == 0
        rows = list(csv.reader(dest.open()))
        assert rows[0] == ["x", "z", "member", "entropy"]
        assert len(rows) == 1 + 41 * 41
        members = [r for r in rows[1:] if r[2] == "True"]
        assert len(members) == 41
        assert all(abs(float(r[0])) < 1e-12 for r in members)

    def test_outside_ball_cells_have_no_entropy(self, tmp_path, capsys):
        dest = tmp_path / "slice.csv"
        run(capsys, "bloch-slice", "--paper-example", "--resolution", "11",
            "--out", str(dest))
        corner = [r for r in list(csv.reader(dest.open()))[1:]
                  if r[0] == "-1.0" and r[1] == "-1.0"]
        assert corner and corner[0][2] == "False" and corner[0][3] == ""

    def test_identity_scenario_marks_whole_disc(self, tmp_path, capsys):
        scen = scenario_identity(tmp_path)
        dest = tmp_path / "disc.csv"
        code, _, _ = run(capsys, "bloch-slice", "--scenario", scen,
                         "--resolution", "11", "--out", str(dest))
        assert code == 0
        rows = list(csv.reader(dest.open()))[1:]
        for r in rows:
            x, z = float(r[0]), float(r[1])
            inside = x * x + z * z <= 1.0 + 1e-12
            assert (r[2] == "True") == inside

    def test_requires_qubit_loop(self, tmp_path, capsys):
        scen = write_json(tmp_path / "three.json", {
            "gate": {"dim1": 2, "dim2": 3, "perm": [0, 1, 2, 3, 4, 5]},
            "rho": qubit_matrix([1, 0]),
        })
        code, _, err = run(capsys, "bloch-slice", "--scenario", scen)
        assert code == 2 and "dim2 = 2" in err
