"""Command-line interface: scenario files, subcommands, exit codes, CSV shapes.

Exit code contract: 0 success, 2 input error, 3 numerical diagnostic.
"""

import csv
import json
import re

import numpy as np
import pytest

from ctckit.cli import main
from ctckit.deutsch import SolverDiagnostic, fixed_point_set
from ctckit.reference import reference_center, reference_gate
from ctckit.selection import ctc_channel


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

    def test_gray_zone_warning_reaches_the_report(self, capsys, tmp_path):
        # sigma_min(M - I) is 8.66e-9 here, within a decade of the 1e-9 cutoff.
        scen = write_json(tmp_path / "g.json", {
            "gate": {"dim1": 3, "dim2": 3, "perm": [6, 3, 4, 8, 1, 7, 0, 2, 5]},
            "rho": {"rows": 3, "cols": 3, "re": [1e-4, 0, 0, 0, 0, 0, 0, 0, 1 - 1e-4],
                    "im": [0] * 9},
        })
        code, out, _ = run(capsys, "fixed-points", "--scenario", scen)
        assert code == 0
        warnings = json.loads(out)["warnings"]
        assert len(warnings) == 1
        assert re.match(r"^singular values \[8\.66\d*e-09\] lie within a decade "
                        r"of the cutoff 1e-09$", warnings[0])


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

    @pytest.mark.parametrize("command", ["fixed-points", "classify"])
    @pytest.mark.parametrize("perm", [[0.5, 1], [0, 5], "ab"], ids=["fraction", "range", "string"])
    def test_malformed_permutation_is_a_bad_gate(self, capsys, tmp_path, command, perm):
        # Used as matrix indices unchecked, these raise IndexError: exit 1.
        gate = {"dim1": 2, "dim2": 1, "perm": perm}
        if command == "classify":
            args = ["--gate", write_json(tmp_path / "g.json", gate)]
        else:
            args = ["--scenario", write_json(tmp_path / "s.json", {
                "gate": gate, "rho": qubit_matrix([1, 0])})]
        code, out, err = run(capsys, command, *args)
        assert code == 2 and out == ""
        assert "bad gate" in err

    @pytest.mark.parametrize("command", ["select", "evolve"])
    @pytest.mark.parametrize("max_iters", [float("nan"), 2.5, True], ids=["nan", "2.5", "true"])
    def test_rule_max_iters_must_be_a_count(self, capsys, tmp_path, command, max_iters):
        # Unchecked, NaN runs no iteration and exits 3 (did not converge).
        scen = write_json(tmp_path / "r.json", {
            "gate": ref_gate_obj(),
            "rho": {"product": [qubit_matrix([1, 0]), qubit_matrix([1, 0])]},
            "rule": {"kind": "min_entropy", "max_iters": max_iters},
        })
        code, out, err = run(capsys, command, "--scenario", scen)
        assert code == 2 and out == ""
        assert "bad rule: max_iters must be a non-negative integer" in err

    def test_census_to_an_unwritable_path_writes_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"dim1": 2, "dim2": 1, "mode": "exhaustive"})
        dest = tmp_path / "missing" / "x.jsonl"
        code, out, err = run(capsys, "census", "--config", cfg, "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(dest) in err
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_probe_to_an_unwritable_path(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "p.csv"
        code, out, err = run(capsys, "probe", "--paper-example", "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(dest) in err
        assert not dest.parent.exists()

    def test_bad_epsilons_list(self, capsys):
        code, _, err = run(capsys, "classify", "--paper-example",
                           "--epsilons", "0.2,zero")
        assert code == 2

    @pytest.mark.parametrize("command", ["classify", "probe"])
    @pytest.mark.parametrize("epsilons", ["2,0.1", "0.1", "0.1,0.1"])
    def test_epsilons_outside_a_strategy_grid(self, capsys, command, epsilons):
        code, out, err = run(capsys, command, "--paper-example", "--epsilons", epsilons)
        assert code == 2 and out == ""
        assert "at least two distinct values in (0, 1]" in err

    @pytest.mark.parametrize("jump_tol", ["0", "-1", "nan", "inf"])
    def test_bad_jump_tol(self, capsys, jump_tol):
        code, out, err = run(capsys, "classify", "--paper-example", "--jump-tol", jump_tol)
        assert code == 2 and out == ""
        assert "jump_tol must be a finite positive number" in err

    def test_census_strategy_off_its_dims_writes_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive", "strategy": "paper_example",
            "out_path": str(tmp_path / "rec.jsonl"),
        })
        code, _, err = run(capsys, "census", "--config", cfg)
        assert code == 2 and "paper_example" in err
        assert not (tmp_path / "rec.jsonl").exists()

    @pytest.mark.parametrize("command", ["classify", "probe"])
    @pytest.mark.parametrize("flag, value", [
        ("--strategy", "vertex_pairs"), ("--strategy", "random_seeded"), ("--seed", "7")])
    def test_paper_example_rejects_strategy_flags(self, capsys, command, flag, value):
        argv = [command, "--paper-example", flag, value]
        if value == "vertex_pairs":
            code, out, err = run(capsys, *argv)
        else:  # no random strategy and no probe seed: argparse refuses them
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
            out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert flag in err

    def test_probe_requires_a_gate_source(self, capsys):
        code, _, err = run(capsys, "probe")
        assert code == 2 and "provide" in err

    @pytest.mark.parametrize("command", ["fixed-points", "select", "evolve", "classify"])
    def test_out_is_written_before_anything_is_printed(self, capsys, tmp_path, command):
        dest = tmp_path / "missing" / "x.out"
        source = (["--paper-example"] if command == "classify"
                  else ["--scenario", scenario_a(tmp_path)])
        code, out, err = run(capsys, command, *source, "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(dest) in err

    def test_census_summary_csv_is_written_before_the_summary_is_printed(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive", "out_path": str(tmp_path / "rec.jsonl"),
        })
        dest = tmp_path / "missing" / "sum.csv"
        code, out, err = run(capsys, "census", "--config", cfg, "--summary-csv", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(dest) in err
        assert not (tmp_path / "rec.jsonl").exists()  # checked before the census ran

    @pytest.mark.parametrize("command", ["probe", "classify"])
    def test_an_unwritable_out_is_found_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                         command):
        from ctckit import discontinuity

        calls = []
        original = discontinuity.fixed_point_set

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(discontinuity, "fixed_point_set", counted)
        dest = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, command, "--paper-example", "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(dest) in err
        assert calls == []

    def test_checking_an_out_path_leaves_its_file_as_it_was(self, tmp_path, capsys):
        kept, new = tmp_path / "kept.json", tmp_path / "new.json"
        kept.write_text("earlier report\n")
        for dest in (kept, new):
            code, out, err = run(capsys, "fixed-points", "--scenario",
                                 str(tmp_path / "absent.json"), "--out", str(dest))
            assert code == 2 and out == "" and "cannot read" in err
        assert kept.read_text() == "earlier report\n"
        assert not new.exists()

    @pytest.mark.parametrize("rows", [1.5, True], ids=["1.5", "true"])
    def test_rho_shape_must_be_a_count(self, capsys, tmp_path, rows):
        # int() read both as 1, and this 1x1 state ran with exit 0.
        scen = write_json(tmp_path / "s.json", {
            "gate": {"dim1": 1, "dim2": 2, "perm": [0, 1]},
            "rho": {"rows": rows, "cols": 1, "re": [1], "im": [0]},
        })
        code, out, err = run(capsys, "fixed-points", "--scenario", scen)
        assert code == 2 and out == ""
        assert "bad rho" in err and "rows must be a non-negative integer" in err

    def test_integral_float_rho_shape_reads_as_an_int(self, capsys, tmp_path):
        rho = qubit_matrix([0.7, 0.3])
        plain = write_json(tmp_path / "p.json", {"gate": ref_gate_obj(), "rho": {
            "product": [qubit_matrix([1, 0]), rho]}})
        floats = write_json(tmp_path / "f.json", {"gate": ref_gate_obj(), "rho": {
            "product": [qubit_matrix([1, 0]), {**rho, "rows": 2.0, "cols": 2.0}]}})
        code, out, _ = run(capsys, "fixed-points", "--scenario", floats)
        assert code == 0
        assert out == run(capsys, "fixed-points", "--scenario", plain)[1]

    def test_empty_product_is_a_bad_rho(self, capsys, tmp_path):
        scen = write_json(tmp_path / "e.json", {"gate": ref_gate_obj(), "rho": {"product": []}})
        code, out, err = run(capsys, "fixed-points", "--scenario", scen)
        assert code == 2 and out == ""
        assert "bad rho: product form needs at least one factor" in err

    @pytest.mark.parametrize("missing", ["gate", "rho"])
    def test_scenario_needs_gate_and_rho(self, capsys, tmp_path, missing):
        obj = {"gate": ref_gate_obj(), "rho": qubit_matrix([1, 0])}
        del obj[missing]
        code, out, err = run(capsys, "fixed-points", "--scenario",
                             write_json(tmp_path / "s.json", obj))
        assert code == 2 and out == ""
        assert "scenario must contain 'gate' and 'rho'" in err

    def test_bloch_slice_requires_a_source(self, capsys):
        code, out, err = run(capsys, "bloch-slice")
        assert code == 2 and out == ""
        assert "provide --scenario or --paper-example" in err

    def test_bloch_slice_needs_two_cells_per_axis(self, capsys):
        code, out, err = run(capsys, "bloch-slice", "--paper-example", "--resolution", "1")
        assert code == 2 and out == ""
        assert "--resolution must be at least 2" in err


def test_matrix_form_of_a_rho_reads_as_the_plain_form(capsys, tmp_path):
    rho = {"rows": 2, "cols": 2, "re": [0.7, 0.2, 0.2, 0.3], "im": [0, 0, 0, 0]}
    gate = {"dim1": 2, "dim2": 2, "perm": [0, 1, 2, 3]}
    outs = []
    for name, form in (("plain", rho), ("matrix", {"matrix": rho})):
        code, out, _ = run(capsys, "evolve", "--scenario",
                           write_json(tmp_path / f"{name}.json", {"gate": gate, "rho": form}))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["probe", "classify"])
def test_a_scenario_is_a_gate_source(capsys, tmp_path, command):
    # Only the scenario's gate is used; its rho and rule block are not.
    grid = ["--strategy", "vertex_pairs", "--epsilons", "0.2,0.1"]
    code, out, _ = run(capsys, command, "--scenario", scenario_a(tmp_path), *grid)
    assert code == 0
    gate = write_json(tmp_path / "g.json", ref_gate_obj())
    assert out == run(capsys, command, "--gate", gate, *grid)[1]


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

    def test_center_row_is_the_channel_at_the_center(self, capsys):
        gate, center = reference_gate(), reference_center()
        rho_hat, sel = ctc_channel(gate, center)
        code, out, _ = run(capsys, "probe", "--paper-example")
        assert code == 0
        _, row = list(csv.reader(out.splitlines()))[:2]
        assert row[:3] == ["reference", "center", "0.0"]
        assert int(row[3]) == fixed_point_set(gate, center).k == 1
        assert float(row[4]) == sel.entropy
        assert json.loads(row[5]) == sel.sigma.to_json()
        assert json.loads(row[6]) == rho_hat.to_json()

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

    def test_directions_and_centers_are_two_stacked_emissions(self, tmp_path, capsys,
                                                               monkeypatch):
        # One stack of the 120 direction points, one of the 4 distinct centers;
        # nothing goes through evolve_out, whose emissions are deutsch's own.
        from ctckit import deutsch, discontinuity

        emissions = []

        def counting(module):
            emit = module._emit

            def counted(u, rhos, sigmas):
                emissions.append((module.__name__, len(rhos)))
                return emit(u, rhos, sigmas)
            return counted

        for module in (deutsch, discontinuity):
            monkeypatch.setattr(module, "_emit", counting(module))
        gate = write_json(tmp_path / "g.json", ref_gate_obj())
        code, _, _ = run(capsys, "probe", "--gate", gate, "--strategy", "vertex_pairs")
        assert code == 0
        assert emissions == [("ctckit.discontinuity", 120), ("ctckit.discontinuity", 4)]


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

    def test_flags_override_the_file_before_the_config_is_built(self, tmp_path, capsys,
                                                                monkeypatch):
        from ctckit.census import CensusConfig

        built = []
        original = CensusConfig.__post_init__

        def counted(self):
            built.append((self.workers, self.out_path))
            original(self)

        monkeypatch.setattr(CensusConfig, "__post_init__", counted)
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive", "workers": 0,
            "out_path": str(tmp_path / "ignored.jsonl"),
        })
        dest = tmp_path / "actual.jsonl"
        code, _, _ = run(capsys, "census", "--config", cfg, "--workers", "1", "--out", str(dest))
        assert code == 0
        assert built == [(1, str(dest))]

    def test_a_jump_tol_string_is_a_bad_config_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive", "jump_tol": "0.1",
            "out_path": str(tmp_path / "rec.jsonl"),
        })
        code, out, err = run(capsys, "census", "--config", cfg)
        assert code == 2 and out == ""
        assert "bad census config" in err and "jump_tol must be a finite positive number" in err
        assert not (tmp_path / "rec.jsonl").exists()

    @pytest.mark.parametrize("config_hash", [5, None])
    def test_resume_of_a_header_hash_that_is_not_a_string(self, tmp_path, capsys, config_hash):
        rec = tmp_path / "rec.jsonl"
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive", "out_path": str(rec)})
        assert run(capsys, "census", "--config", cfg)[0] == 0
        lines = rec.read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), config_hash=config_hash))
        rec.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "census", "--config", cfg, "--resume")
        assert code == 2 and out == ""
        assert "line 1: bad census header" in err

    @pytest.mark.parametrize("perm", [[0, 0], [], [0, 9]], ids=str)
    def test_resume_of_a_record_that_names_no_gate(self, tmp_path, capsys, perm):
        rec = tmp_path / "rec.jsonl"
        cfg = write_json(tmp_path / "cfg.json", {
            "dim1": 2, "dim2": 1, "mode": "exhaustive", "out_path": str(rec)})
        assert run(capsys, "census", "--config", cfg)[0] == 0
        header, first, _ = rec.read_text().splitlines()
        text = "\n".join([header, first, json.dumps(dict(json.loads(first),
                                                         permutation=perm))]) + "\n"
        rec.write_text(text)
        code, out, err = run(capsys, "census", "--config", cfg, "--resume")
        assert code == 2 and out == ""
        assert "line 3: corrupt record" in err and "is not a permutation of 0..1" in err
        assert rec.read_text() == text

    def test_a_config_that_is_not_an_object_is_a_bad_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", [2, 1])
        code, out, err = run(capsys, "census", "--config", cfg, "--workers", "1")
        assert code == 2 and out == ""
        assert "bad census config" in err and "must be a mapping, not list" in err


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
