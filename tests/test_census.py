"""Census bookkeeping: enumeration, the record file format, resume, summary.

The record file is JSON Lines: a header line carrying a hash of the
semantic configuration, then one record per classified gate, flushed as
written so an interrupted run loses at most one partial line.
"""

import json
import math

import numpy as np
import pytest

from ctckit.census import (
    CensusConfig,
    CensusFileError,
    CensusRecord,
    enumerate_permutation_gates,
    run_census,
    summarize,
)
from ctckit import discontinuity
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

    @pytest.mark.parametrize("epsilons", [(0.1,), (0.1, 0.1), (0.1, 0.0), (0.1, -0.05)])
    def test_rejects_bad_epsilons_before_writing(self, tmp_path, epsilons):
        with pytest.raises(ValueError, match="epsilons"):
            run_census(small_config(tmp_path, epsilons=epsilons))
        assert not (tmp_path / "c.jsonl").exists()

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
        assert len(list(enumerate_permutation_gates(2, 1))) == 2
        assert len(list(enumerate_permutation_gates(2, 2))) == math.factorial(4)

    def test_lexicographic_starts_at_identity(self):
        first = next(iter(enumerate_permutation_gates(2, 2)))
        assert first.permutation == (0, 1, 2, 3)

    def test_sample_is_distinct_and_seeded(self):
        a = [g.permutation for g in
             enumerate_permutation_gates(4, 2, mode="sample", sample_size=20, seed=9)]
        b = [g.permutation for g in
             enumerate_permutation_gates(4, 2, mode="sample", sample_size=20, seed=9)]
        assert a == b
        assert len(set(a)) == 20


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
        expected = [g.permutation for g in enumerate_permutation_gates(
            4, 2, mode="sample", sample_size=5, seed=2)]
        assert got == expected


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
