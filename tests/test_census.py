"""Census bookkeeping: enumeration, the record file format, resume, summary.

The record file is JSON Lines: a header line carrying a hash of the
semantic configuration, then one record per classified gate, flushed as
written so an interrupted run loses at most one partial line.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from ctckit.census import (
    CensusConfig,
    CensusFileError,
    CensusRecord,
    _classify_one,
    _permutation_tuples,
    run_census,
    summarize,
)
from ctckit import census, discontinuity
from ctckit.discontinuity import DEFAULT_EPSILONS, classify
from ctckit.states import UnitaryGate

from test_discontinuity import failing_at


def small_config(tmp_path, **overrides):
    kwargs = dict(dim1=2, dim2=2, mode="exhaustive", out_path=str(tmp_path / "c.jsonl"))
    kwargs.update(overrides)
    return CensusConfig(**kwargs)


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            CensusConfig(2, 2, mode="stratified")

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            CensusConfig(4, 3, mode="exhaustive")  # 12! gates

    def test_sample_needs_size(self):
        with pytest.raises(ValueError):
            CensusConfig(4, 2, mode="sample")

    def test_sample_size_bounded_by_population(self):
        with pytest.raises(ValueError):
            CensusConfig(2, 1, mode="sample", sample_size=3)  # only 2 gates exist

    @pytest.mark.parametrize(
        "epsilons", [(0.1,), (0.1, 0.1), (0.1, 0.0), (0.1, -0.05), (2.0, 0.1), (1.5, 1.2)])
    def test_rejects_bad_epsilons_before_writing(self, tmp_path, epsilons):
        with pytest.raises(ValueError, match="epsilons"):
            run_census(small_config(tmp_path, epsilons=epsilons))
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("overrides", [
        dict(strategy="exhaustive"),
        dict(strategy="paper_example"),  # defined on dims (4, 2) only
        dict(strategy="random_seeded", seed=5),  # retired: probe families are not random
        dict(dim1=1, dim2=2),  # vertex_pairs needs two vertices
        dict(jump_tol=0.0),
        dict(jump_tol=-1.0),
        dict(jump_tol=float("nan")),
        dict(jump_tol=float("inf")),
        dict(max_refinements=-1),
        dict(jump_tol="0.1"),  # float() accepts it, but the string would be hashed
        dict(jump_tol=True),
    ], ids=["unknown-strategy", "paper-example-off-dims", "retired-random-strategy",
            "vertex-pairs-dim1", "jump-tol-0", "jump-tol-negative", "jump-tol-nan",
            "jump-tol-inf", "max-refinements-negative", "jump-tol-string", "jump-tol-true"])
    def test_rejects_unusable_settings_before_writing(self, tmp_path, overrides):
        with pytest.raises(ValueError):
            run_census(small_config(tmp_path, **overrides))
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("overrides", [
        dict(mode="sample", sample_size=2.5),
        dict(mode="sample", sample_size=True),
        dict(sample_size=0.5),
        dict(workers=1.5),
        dict(workers=True),
        dict(dim2=True),
        dict(seed=True),
        dict(seed=-1),
        dict(max_refinements=True),
        dict(max_refinements=0.5),
        dict(seed=None),
        dict(workers="2"),
    ], ids=["sample-size-2.5", "sample-size-true", "exhaustive-sample-size-0.5", "workers-1.5",
            "workers-true", "dim2-true", "seed-true", "seed-negative", "max-refinements-true",
            "max-refinements-0.5", "seed-none", "workers-string"])
    def test_rejects_non_integral_counts_before_writing(self, tmp_path, overrides):
        # Each would be hashed as given: 2.5 gates enumerate 3, True hashes "true".
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            run_census(small_config(tmp_path, **overrides))
        assert not (tmp_path / "c.jsonl").exists()

    def test_integral_counts_hash_as_ints(self):
        a = CensusConfig(4, 2, mode="sample", sample_size=10, seed=3, max_refinements=1)
        b = CensusConfig(4.0, 2.0, mode="sample", sample_size=10.0, seed=np.int64(3),
                         max_refinements=1.0, workers=2.0)
        assert b.config_hash() == a.config_hash()
        assert (b.sample_size, b.workers) == (10, 2) and type(b.seed) is int

    def test_one_grid_hashes_alike_in_any_order_or_repeat(self):
        # classify sorts and dedupes the grid, so the census stores and hashes it so.
        a = CensusConfig(4, 2, mode="sample", sample_size=10)
        for epsilons in (DEFAULT_EPSILONS[::-1], DEFAULT_EPSILONS + (0.2,),
                         [np.float64(e) for e in DEFAULT_EPSILONS]):
            b = CensusConfig(4, 2, mode="sample", sample_size=10, epsilons=epsilons)
            assert b.config_hash() == a.config_hash()
            assert b.epsilons == DEFAULT_EPSILONS and all(type(e) is float for e in b.epsilons)

    def test_hash_ignores_execution_fields(self):
        a = CensusConfig(4, 2, mode="sample", sample_size=10)
        b = CensusConfig(4, 2, mode="sample", sample_size=10, workers=8,
                         out_path="elsewhere.jsonl")
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_semantic_fields(self):
        a = CensusConfig(4, 2, mode="sample", sample_size=10, seed=0)
        b = CensusConfig(4, 2, mode="sample", sample_size=10, seed=1)
        assert a.config_hash() != b.config_hash()

    def test_json_round_trip(self):
        a = CensusConfig(4, 2, mode="sample", sample_size=7, seed=3, workers=2)
        b = CensusConfig.from_json(json.loads(json.dumps(a.to_json())))
        assert b.config_hash() == a.config_hash()
        assert b.workers == 2


class TestEnumeration:
    def test_counts(self):
        assert len(_permutation_tuples(CensusConfig(2, 1))) == 2
        assert len(_permutation_tuples(CensusConfig(2, 2))) == math.factorial(4)

    def test_lexicographic_starts_at_identity(self):
        assert _permutation_tuples(CensusConfig(2, 2))[0] == (0, 1, 2, 3)

    def test_sample_is_distinct_and_seeded(self):
        config = CensusConfig(4, 2, mode="sample", sample_size=20, seed=9)
        a = _permutation_tuples(config)
        assert a == _permutation_tuples(config)
        assert len(set(a)) == 20

    @pytest.mark.parametrize("dims, size, seed", [
        ((2, 2), 24, 0),  # every gate: refill batches draw past duplicates
        ((3, 2), 40, 0),
        ((4, 2), 500, 42),  # the pinned census
        ((3, 3), 240, 7),
    ])
    def test_sample_is_the_per_call_draw(self, dims, size, seed):
        def per_call(config):  # one rng.permutation call per draw
            rng = np.random.default_rng(config.seed)
            seen, out = set(), []
            while len(out) < config.sample_size:
                p = tuple(rng.permutation(config.dim1 * config.dim2).tolist())
                if p not in seen:
                    seen.add(p)
                    out.append(p)
            return out

        config = CensusConfig(*dims, mode="sample", sample_size=size, seed=seed)
        assert _permutation_tuples(config) == per_call(config)

    def test_a_sample_is_drawn_in_bounded_batches(self, monkeypatch):
        rows = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def permuted(self, x, axis):
                rows.append(len(x))
                return self.rng.permuted(x, axis=axis)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        size = 2 * census._DRAW_ROWS + 5
        sample = _permutation_tuples(CensusConfig(3, 3, mode="sample", sample_size=size))
        assert len(set(sample)) == size
        assert len(rows) >= 3 and max(rows) == census._DRAW_ROWS

    def test_pinned_sample_is_the_pinned_census_in_file_order(self):
        pinned = Path(__file__).parent.parent / "results" / "census_sample500_seed42.jsonl"
        header, *records = pinned.read_text(encoding="utf-8").splitlines()
        sample = _permutation_tuples(CensusConfig.from_json(json.loads(header)["config"]))
        assert sample == [tuple(json.loads(line)["permutation"]) for line in records]
        assert all(type(i) is int for p in sample for i in p)

    def test_pinned_records_reproduce_their_witness_digest(self):
        pinned = Path(__file__).parent.parent / "results" / "census_sample500_seed42.jsonl"
        header, *records = pinned.read_text(encoding="utf-8").splitlines()
        config = CensusConfig.from_json(dict(json.loads(header)["config"], out_path=os.devnull))
        for line in records[:20]:
            rec = json.loads(line)
            new = _classify_one(tuple(rec["permutation"]), config)
            assert new.witness_digest == rec["witness_digest"], rec["permutation"]


class TestRunAndSummarize:
    def test_exhaustive_two_level_loop(self, tmp_path):
        # dim2 = 1 leaves nothing on the loop: every gate is trivially continuous
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        summary = run_census(cfg)
        assert summary.total == 2
        assert summary.fraction_continuous_witnessed_none == 1.0

    def test_fractions_sum_rule(self, tmp_path):
        cfg = CensusConfig(4, 2, mode="sample", sample_size=8, seed=1,
                           out_path=str(tmp_path / "s.jsonl"))
        summary = run_census(cfg)
        assert summary.total == 8
        assert summary.fraction_ephemeral_or_physical + \
            summary.fraction_continuous_witnessed_none == pytest.approx(1.0)
        assert sum(summary.counts.values()) == 8

    def test_refuses_existing_file_without_resume(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        run_census(cfg)
        with pytest.raises(CensusFileError):
            run_census(cfg)

    def test_finished_census_resume_is_noop(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        first = run_census(cfg)
        lines_before = open(cfg.out_path).read()
        again = run_census(cfg, resume=True)
        assert open(cfg.out_path).read() == lines_before
        assert again.to_json() == first.to_json()

    def test_header_records_config_hash(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        run_census(cfg)
        header = json.loads(open(cfg.out_path).readline())
        assert header["kind"] == "ctckit-census"
        assert header["config_hash"] == cfg.config_hash()

    def test_records_follow_enumeration_order(self, tmp_path):
        cfg = CensusConfig(4, 2, mode="sample", sample_size=5, seed=2,
                           out_path=str(tmp_path / "o.jsonl"))
        run_census(cfg)
        got = [tuple(json.loads(l)["permutation"])
               for l in open(cfg.out_path).readlines()[1:]]
        assert got == _permutation_tuples(cfg)


class TestResume:
    def _interrupt(self, path, keep_records, partial=False):
        lines = open(path).read().splitlines(keepends=True)
        kept = lines[: 1 + keep_records]
        if partial and len(lines) > len(kept):
            kept.append(lines[len(kept)][: len(lines[len(kept)]) // 2])
        with open(path, "w") as fh:
            fh.writelines(kept)

    @pytest.mark.parametrize("partial", [False, True])
    def test_resume_matches_uninterrupted_run(self, tmp_path, partial):
        cfg = CensusConfig(4, 2, mode="sample", sample_size=6, seed=4,
                           out_path=str(tmp_path / "full.jsonl"))
        full = run_census(cfg)

        cfg2 = CensusConfig(4, 2, mode="sample", sample_size=6, seed=4,
                            out_path=str(tmp_path / "cut.jsonl"))
        run_census(cfg2)
        self._interrupt(cfg2.out_path, keep_records=3, partial=partial)
        resumed = run_census(cfg2, resume=True)
        assert resumed.to_json() == full.to_json()

        # the record lines themselves agree apart from timing
        strip = lambda l: {k: v for k, v in json.loads(l).items() if k != "wall_time"}
        a = [strip(l) for l in open(cfg.out_path).readlines()[1:]]
        b = [strip(l) for l in open(cfg2.out_path).readlines()[1:]]
        assert sorted(a, key=str) == sorted(b, key=str)

    def test_resume_rejects_foreign_header(self, tmp_path):
        cfg = CensusConfig(4, 2, mode="sample", sample_size=3, seed=5,
                           out_path=str(tmp_path / "a.jsonl"))
        run_census(cfg)
        other = CensusConfig(4, 2, mode="sample", sample_size=3, seed=6,
                             out_path=cfg.out_path)
        with pytest.raises(CensusFileError):
            run_census(other, resume=True)

    def test_truncated_header_is_rejected(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        run_census(cfg)
        header = open(cfg.out_path).readline()
        open(cfg.out_path, "w").write(header[: len(header) // 2])
        with pytest.raises(CensusFileError, match="line 1"):
            run_census(cfg, resume=True)
        with pytest.raises(CensusFileError, match="line 1"):
            summarize(cfg.out_path)

    @pytest.mark.parametrize("config_hash", [5, None])
    def test_a_header_hash_that_is_not_a_string_is_a_bad_header(self, tmp_path, config_hash):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        run_census(cfg)
        lines = open(cfg.out_path).read().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), config_hash=config_hash))
        open(cfg.out_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CensusFileError, match="line 1: bad census header"):
            run_census(cfg, resume=True)
        with pytest.raises(CensusFileError, match="line 1: bad census header"):
            summarize(cfg.out_path)

    @pytest.mark.parametrize("final", [False, True])
    def test_resume_rejects_unknown_verdict_and_keeps_the_line(self, tmp_path, final):
        cfg = CensusConfig(4, 2, mode="sample", sample_size=3, seed=5,
                           out_path=str(tmp_path / "v.jsonl"))
        run_census(cfg)
        lines = open(cfg.out_path).read().splitlines()[:-1]  # one gate left to classify
        i = len(lines) - 1 if final else 1
        lines[i] = json.dumps(dict(json.loads(lines[i]), verdict="sideways"), sort_keys=True)
        text = "\n".join(lines) + "\n"
        open(cfg.out_path, "w").write(text)
        with pytest.raises(CensusFileError, match=f"line {i + 1}: unknown verdict"):
            run_census(cfg, resume=True)
        # Rejected before any gate is classified: the file is as it was.
        assert open(cfg.out_path).read() == text

    def test_resume_rejects_corrupt_middle_line(self, tmp_path):
        cfg = CensusConfig(4, 2, mode="sample", sample_size=3, seed=5,
                           out_path=str(tmp_path / "m.jsonl"))
        run_census(cfg)
        lines = open(cfg.out_path).read().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # not the final line
        open(cfg.out_path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CensusFileError, match="line 3"):
            run_census(cfg, resume=True)


class TestSummarize:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CensusFileError):
            summarize(str(tmp_path / "nope.jsonl"))

    def test_header_only_file(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        path = cfg.out_path
        header = {"kind": "ctckit-census", "version": 1,
                  "config_hash": cfg.config_hash(), "config": cfg.to_json()}
        open(path, "w").write(json.dumps(header) + "\n")
        assert summarize(path).total == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert summarize(str(path)).to_json() == {
            "total": 0, "fraction_physical": 0.0, "fraction_ephemeral_or_physical": 0.0,
            "fraction_continuous_witnessed_none": 0.0,
            "counts": {v: 0 for v in discontinuity.VERDICTS}}

    def test_blank_lines_are_skipped(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        expected = run_census(cfg)
        header, *records = open(cfg.out_path).read().splitlines()
        open(cfg.out_path, "w").write("\n".join([header, "", records[0], "   ", records[1], ""]))
        assert summarize(cfg.out_path) == expected

    def test_duplicate_permutations_count_once(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        run_census(cfg)
        lines = open(cfg.out_path).read().splitlines()
        open(cfg.out_path, "a").write(lines[1] + "\n")  # duplicate first record
        assert summarize(cfg.out_path).total == 2

    def test_unknown_verdict_flagged_with_line(self, tmp_path):
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        run_census(cfg)
        rec = CensusRecord((0, 1), "sideways", 0.0, 0.0, 0.0, "x")
        open(cfg.out_path, "a").write(json.dumps(rec.to_json()) + "\n")
        with pytest.raises(CensusFileError, match="line 4"):
            summarize(cfg.out_path)

    @pytest.mark.parametrize("perm", [[0.5, 1], [True, 0]], ids=["fraction", "bool"])
    def test_permutation_entries_follow_the_count_rule(self, tmp_path, perm):
        # ``int()`` would read either record as a gate of the census.
        cfg = small_config(tmp_path, dim1=2, dim2=1)
        run_census(cfg)
        rec = dict(CensusRecord((0, 1), "physical", 0.0, 0.0, 0.0, "x").to_json(),
                   permutation=perm)
        open(cfg.out_path, "a").write(json.dumps(rec) + "\n")
        with pytest.raises(CensusFileError, match="line 4: corrupt record.*permutation entry"):
            summarize(cfg.out_path)


NON_GATES = [[0, 0, 0, 0], [], [0, 1, 2, 9], [1, 0], [0, 1, 2, 3, 4]]


class TestNonGateRecords:
    """A record whose permutation does not permute 0..d-1, for d = dim1 * dim2
    of the header, names no gate of the census and is a corrupt line."""

    def _file(self, tmp_path, perm, final):
        # A (2, 2) census file with two gate records and the non-gate one
        # in the middle (line 3) or last (line 4).
        cfg = small_config(tmp_path)
        header = {"kind": "ctckit-census", "version": 1,
                  "config_hash": cfg.config_hash(), "config": cfg.to_json()}
        gates = [CensusRecord(p, "physical", 0.0, 0.0, 0.0, "").to_json()
                 for p in [(0, 1, 2, 3), (1, 0, 2, 3)]]
        bad = dict(gates[0], permutation=perm)
        records = gates + [bad] if final else [gates[0], bad, gates[1]]
        text = "\n".join(json.dumps(obj, sort_keys=True) for obj in [header, *records]) + "\n"
        Path(cfg.out_path).write_text(text)
        return cfg, text, 4 if final else 3

    @pytest.mark.parametrize("final", [False, True], ids=["middle", "final"])
    @pytest.mark.parametrize("perm", NON_GATES, ids=str)
    def test_summarize_rejects_it_with_its_line(self, tmp_path, perm, final):
        cfg, _, line = self._file(tmp_path, perm, final)
        with pytest.raises(CensusFileError, match=f"line {line}: corrupt record"):
            summarize(cfg.out_path)

    @pytest.mark.parametrize("final", [False, True], ids=["middle", "final"])
    @pytest.mark.parametrize("perm", NON_GATES, ids=str)
    def test_resume_rejects_it_and_leaves_the_file(self, tmp_path, perm, final, monkeypatch):
        # Rejected before any gate is classified; a whole final line that
        # names no gate is not an interrupted append, so repair keeps it.
        cfg, text, line = self._file(tmp_path, perm, final)
        monkeypatch.setattr(discontinuity, "fixed_point_set", None)  # a solve would raise
        with pytest.raises(CensusFileError, match=f"line {line}: corrupt record"):
            run_census(cfg, resume=True)
        assert Path(cfg.out_path).read_text() == text

    def test_gate_records_still_read(self, tmp_path):
        cfg, _, _ = self._file(tmp_path, [3, 2, 1, 0], final=True)
        assert summarize(cfg.out_path).total == 3

    @pytest.mark.parametrize("dims", [{"dim1": "2"}, {"dim2": 0}, {"dim1": True}])
    def test_a_header_without_count_dims_is_a_bad_header(self, tmp_path, dims):
        cfg, text, _ = self._file(tmp_path, [3, 2, 1, 0], final=True)
        lines = text.splitlines()
        header = json.loads(lines[0])
        lines[0] = json.dumps(dict(header, config=dict(header["config"], **dims)))
        Path(cfg.out_path).write_text("\n".join(lines) + "\n")
        with pytest.raises(CensusFileError, match="line 1: bad census header"):
            summarize(cfg.out_path)


def test_a_census_builds_no_witness_row(tmp_path, monkeypatch):
    # A census record keeps the witness only as its digest, so a census
    # never builds the row dicts of a witness.
    def refuse(table):
        raise AssertionError("a census built witness rows")

    monkeypatch.setattr(discontinuity, "_witness_rows", refuse)
    cfg = CensusConfig(4, 2, mode="sample", sample_size=3, seed=5,
                       out_path=str(tmp_path / "r.jsonl"))
    assert run_census(cfg).total == 3
    records = [json.loads(line) for line in open(cfg.out_path).read().splitlines()[1:]]
    assert len(records) == 3 and all(len(r["witness_digest"]) == 64 for r in records)


def test_solver_diagnostic_still_writes_the_gate_record(tmp_path, monkeypatch):
    def records(cfg):
        run_census(cfg)
        return {tuple(r["permutation"]): r for r in map(json.loads, open(cfg.out_path).readlines()[1:])}

    clean = records(CensusConfig(2, 2, mode="sample", sample_size=3, seed=1,
                                 out_path=str(tmp_path / "clean.jsonl")))
    # The finest point of vertex 0's path toward |1>: (1 - eps)|0><0| + eps|1><1|.
    eps = min(DEFAULT_EPSILONS)
    monkeypatch.setattr(discontinuity, "fixed_point_set", failing_at(np.diag([1.0 - eps, eps])))
    failed = records(CensusConfig(2, 2, mode="sample", sample_size=3, seed=1,
                                  out_path=str(tmp_path / "failed.jsonl")))
    assert failed.keys() == clean.keys()
    # Every gate solved that state, so every witness records the failure.
    for perm, rec in failed.items():
        assert rec["witness_digest"] != clean[perm]["witness_digest"]


def test_parallel_run_matches_serial(tmp_path):
    serial = CensusConfig(4, 2, mode="sample", sample_size=4, seed=11,
                          out_path=str(tmp_path / "s1.jsonl"), workers=1)
    parallel = CensusConfig(4, 2, mode="sample", sample_size=4, seed=11,
                            out_path=str(tmp_path / "s2.jsonl"), workers=2)
    a = run_census(serial)
    b = run_census(parallel)
    assert a.to_json() == b.to_json()
    strip = lambda l: {k: v for k, v in json.loads(l).items() if k != "wall_time"}
    assert [strip(l) for l in open(serial.out_path).readlines()[1:]] == \
           [strip(l) for l in open(parallel.out_path).readlines()[1:]]


def test_verdict_invariant_under_loop_basis_relabeling():
    """Conjugating by (identity ⊗ bit flip) permutes the loop basis; every
    part of the analysis transforms covariantly so verdicts must agree."""
    rng = np.random.default_rng(17)
    # I ⊗ X on index 2a + b flips the low bit: i -> i ^ 1
    for _ in range(3):
        p = tuple(int(i) for i in rng.permutation(8))
        q = tuple((p[j ^ 1]) ^ 1 for j in range(8))
        u_p = UnitaryGate.from_permutation(4, 2, p)
        u_q = UnitaryGate.from_permutation(4, 2, q)
        c_p = classify(u_p, strategy="vertex_pairs", max_refinements=1)
        c_q = classify(u_q, strategy="vertex_pairs", max_refinements=1)
        assert c_p.verdict == c_q.verdict
        assert c_p.sigma_jump == pytest.approx(c_q.sigma_jump, abs=1e-8)
