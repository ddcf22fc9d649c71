"""Bulk classification of basis-permutation gates.

A census enumerates permutation gates on ``H1 (x) H2`` (all of them in
lexicographic order, or a seeded sample of distinct ones), classifies each
with the discontinuity prober, and appends one JSON record per gate to a
JSONL file whose first line is a header carrying a hash of the semantic
configuration.  Runs are resumable: a rerun with ``resume=True`` verifies
the header hash, skips gates already recorded, and repairs a partial
trailing line left by an interrupted write.  Records are written in
enumeration order regardless of worker count, so reruns produce identical
files apart from per-record wall times.

``_read_census`` is the one reader of a record file: resume and
:func:`summarize` both go through it, and a run summarizes the records it
loaded and wrote without reading the file again.
"""

import itertools
import json
import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .discontinuity import DEFAULT_EPSILONS, JUMP_TOL, VERDICTS, classify
from .discontinuity import _check_refinement, _check_strategy, _epsilon_grid
from .states import UnitaryGate, _check_count, _permutation

__all__ = [
    "CensusConfig",
    "CensusRecord",
    "CensusSummary",
    "CensusFileError",
    "run_census",
    "summarize",
]

EXHAUSTIVE_CAP = 40_320  # 8!
_DRAW_ROWS = 1024  # rows of one batch of sampled permutations
_RUN_FIELDS = ("workers", "out_path", "exhaustive_cap")  # where and how, not what
_COUNT_FLOORS = {"dim1": 1, "dim2": 1, "sample_size": 0, "seed": 0, "max_refinements": 0,
                 "workers": 1, "exhaustive_cap": 0}


class CensusFileError(Exception):
    """A census file is missing, corrupt, or does not match the config."""


@dataclass
class CensusConfig:
    dim1: int
    dim2: int
    mode: str = "exhaustive"
    sample_size: int = 0
    seed: int = 0  # draws the sample; probe families are not random
    strategy: str = "vertex_pairs"
    epsilons: tuple = DEFAULT_EPSILONS
    jump_tol: float = JUMP_TOL
    max_refinements: int = 1
    workers: int = 1
    out_path: str = "census.jsonl"
    exhaustive_cap: int = EXHAUSTIVE_CAP

    def __post_init__(self):
        for name, floor in _COUNT_FLOORS.items():  # hashed as ints, as epsilons are as floats
            setattr(self, name, _check_count(name, getattr(self, name), floor))
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown census mode {self.mode!r}")
        total = math.factorial(self.dim1 * self.dim2)
        if self.mode == "exhaustive" and total > self.exhaustive_cap:
            raise ValueError(
                f"exhaustive census of {total} gates exceeds the cap "
                f"{self.exhaustive_cap}; use sample mode"
            )
        if self.mode == "sample":
            _check_count("sample_size", self.sample_size, 1)
            if self.sample_size > total:
                raise ValueError(f"sample_size {self.sample_size} exceeds {total} gates")
        self.epsilons = tuple(_epsilon_grid(self.epsilons))  # hashed as classify reads it
        _check_refinement(self.jump_tol, self.max_refinements)
        _check_strategy(self.strategy, self.dim1, self.dim2)

    def semantics(self):
        """The fields that determine census content (not where/how it runs)."""
        return {k: v for k, v in asdict(self).items() if k not in _RUN_FIELDS}

    def config_hash(self):
        blob = json.dumps(self.semantics(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)


@dataclass
class CensusRecord:
    permutation: tuple
    verdict: str
    sigma_jump: float
    rho_hat_jump: float
    wall_time: float
    witness_digest: str

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        """The record of a JSON object; :func:`_read_census` checks that its
        permutation is a gate of the census."""
        return cls(
            permutation=tuple(obj["permutation"]),
            verdict=str(obj["verdict"]),
            sigma_jump=float(obj["sigma_jump"]),
            rho_hat_jump=float(obj["rho_hat_jump"]),
            wall_time=float(obj["wall_time"]),
            witness_digest=str(obj["witness_digest"]),
        )


@dataclass
class CensusSummary:
    total: int
    fraction_physical: float
    fraction_ephemeral_or_physical: float
    fraction_continuous_witnessed_none: float
    counts: dict

    def to_json(self):
        return asdict(self)


def _permutation_tuples(config):
    """Permutations a validated config enumerates, lexicographic or sampled.

    A sample is the first ``sample_size`` distinct permutations that
    ``rng.permutation(d)`` calls of a generator seeded by ``config.seed``
    would draw, in draw order.  They are drawn as rows of
    ``rng.permuted(..., axis=1)``, which shuffles each row as one
    ``permutation`` call does and so reads the same stream, in batches of at
    most :data:`_DRAW_ROWS` rows and never more than the sample still lacks.
    """
    d = config.dim1 * config.dim2
    if config.mode == "exhaustive":
        return list(itertools.permutations(range(d)))
    rng = np.random.default_rng(config.seed)
    drawn = {}  # each distinct permutation, in draw order
    while len(drawn) < config.sample_size:
        rows = min(config.sample_size - len(drawn), _DRAW_ROWS)
        batch = rng.permuted(np.tile(np.arange(d), (rows, 1)), axis=1)
        drawn.update(dict.fromkeys(map(tuple, batch.tolist())))
    return list(drawn)


def _classify_one(perm, config):
    gate = UnitaryGate.from_permutation(config.dim1, config.dim2, perm)
    t0 = time.perf_counter()
    cls = classify(
        gate,
        strategy=config.strategy,
        epsilons=config.epsilons,
        jump_tol=config.jump_tol,
        max_refinements=config.max_refinements,
    )
    wall = time.perf_counter() - t0
    return CensusRecord(
        permutation=tuple(perm),
        verdict=cls.verdict,
        sigma_jump=cls.sigma_jump,
        rho_hat_jump=cls.rho_hat_jump,
        wall_time=wall,
        witness_digest=cls.witness_digest(),
    )


def _read_census(path, repair=False):
    """``(header config hash, {permutation: record})`` of a census file.

    The first record of a permutation wins.  A corrupt line raises
    :class:`CensusFileError` with its line number: a header whose
    ``config_hash`` is not a string or whose config lacks count dims, a
    record that does not permute ``0..d-1`` for ``d = dim1 * dim2`` of the
    header (checked by the rule of ``states._permutation``), or an unknown
    verdict.  With ``repair=True`` only a final line that does not read as a
    record (an interrupted append) is truncated away instead.
    """
    if not os.path.exists(path):
        raise CensusFileError(f"{path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return None, {}
    try:
        header = json.loads(lines[0])
        header_hash, dims = header["config_hash"], header["config"]
        if type(header_hash) is not str:
            raise TypeError(f"config_hash {header_hash!r} is not a string")
        d = _check_count("dim1", dims["dim1"], 1) * _check_count("dim2", dims["dim2"], 1)
    except (json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
        raise CensusFileError(f"{path} line 1: bad census header ({exc})") from exc
    records = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = CensusRecord.from_json(json.loads(line))
        except (json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
            if repair and i == len(lines):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines[:-1]) + "\n")
                break
            raise CensusFileError(f"{path} line {i}: corrupt record ({exc})") from exc
        try:
            rec.permutation = _permutation(rec.permutation, d)
        except ValueError as exc:
            raise CensusFileError(f"{path} line {i}: corrupt record ({exc})") from exc
        if rec.verdict not in VERDICTS:
            raise CensusFileError(f"{path} line {i}: unknown verdict {rec.verdict!r}")
        records.setdefault(rec.permutation, rec)
    return header_hash, records


def run_census(config, resume=False):
    """Run (or continue) a census and return its summary.

    A fresh run refuses to touch an existing output file unless
    ``resume=True``; resuming verifies the header hash and classifies only
    gates without a record yet.  Rerunning a finished census is a no-op.
    """
    path = config.out_path
    perms = _permutation_tuples(config)

    records = {}
    if os.path.exists(path) and os.path.getsize(path) > 0:
        if not resume:
            raise CensusFileError(f"{path} exists; resume or remove it first")
        stored_hash, records = _read_census(path, repair=True)
        if stored_hash != config.config_hash():
            raise CensusFileError(
                f"{path} was produced by a different configuration "
                f"({stored_hash[:12]}... != {config.config_hash()[:12]}...)"
            )
    else:
        header = {
            "kind": "ctckit-census",
            "version": 1,
            "config_hash": config.config_hash(),
            "config": config.to_json(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")

    todo = [p for p in perms if p not in records]
    configs = itertools.repeat(config)

    with open(path, "a", encoding="utf-8") as fh:
        def append(new_records):
            for rec in new_records:
                fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
                fh.flush()
                records[rec.permutation] = rec

        if config.workers > 1 and todo:
            from concurrent.futures import ProcessPoolExecutor  # serial runs skip it
            with ProcessPoolExecutor(max_workers=config.workers) as pool:
                append(pool.map(_classify_one, todo, configs))
        else:
            append(map(_classify_one, todo, configs))

    return _summary(records.values())


def summarize(path):
    """Verdict counts and fractions for a census file.

    Duplicate records for a permutation are counted once.  Raises
    :class:`CensusFileError` with a line number on any corrupt line.
    """
    return _summary(_read_census(path)[1].values())


def _summary(records):
    counts = {v: 0 for v in VERDICTS}
    for rec in records:
        counts[rec.verdict] += 1
    total = sum(counts.values())
    if total == 0:
        return CensusSummary(0, 0.0, 0.0, 0.0, counts)
    n_phys = counts["physical"]
    n_eph = counts["ephemeral"]
    n_none = counts["continuous_witnessed_none"]
    return CensusSummary(
        total=total,
        fraction_physical=n_phys / total,
        fraction_ephemeral_or_physical=(n_phys + n_eph) / total,
        fraction_continuous_witnessed_none=n_none / total,
        counts=counts,
    )
