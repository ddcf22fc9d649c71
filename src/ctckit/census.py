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
from dataclasses import asdict, dataclass, field

import numpy as np

from .discontinuity import DEFAULT_EPSILONS, JUMP_TOL, VERDICTS, classify
from .states import UnitaryGate

__all__ = [
    "CensusConfig",
    "CensusRecord",
    "CensusSummary",
    "CensusFileError",
    "enumerate_permutation_gates",
    "run_census",
    "summarize",
]

EXHAUSTIVE_CAP = 40_320  # 8!
_RUN_FIELDS = ("workers", "out_path", "exhaustive_cap")  # where and how, not what


class CensusFileError(Exception):
    """A census file is missing, corrupt, or does not match the config."""


@dataclass
class CensusConfig:
    dim1: int
    dim2: int
    mode: str = "exhaustive"
    sample_size: int = 0
    seed: int = 0
    strategy: str = "vertex_pairs"
    epsilons: tuple = DEFAULT_EPSILONS
    jump_tol: float = JUMP_TOL
    max_refinements: int = 1
    workers: int = 1
    out_path: str = "census.jsonl"
    exhaustive_cap: int = EXHAUSTIVE_CAP

    def __post_init__(self):
        if self.dim1 < 1 or self.dim2 < 1:
            raise ValueError("factor dimensions must be positive")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown census mode {self.mode!r}")
        total = math.factorial(self.dim1 * self.dim2)
        if self.mode == "exhaustive" and total > self.exhaustive_cap:
            raise ValueError(
                f"exhaustive census of {total} gates exceeds the cap "
                f"{self.exhaustive_cap}; use sample mode"
            )
        if self.mode == "sample":
            if self.sample_size < 1:
                raise ValueError("sample mode needs sample_size >= 1")
            if self.sample_size > total:
                raise ValueError(f"sample_size {self.sample_size} exceeds {total} gates")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.epsilons = tuple(float(e) for e in self.epsilons)
        if len(set(self.epsilons)) < 2 or not min(self.epsilons) > 0:
            raise ValueError("epsilons must hold at least two distinct positive values")

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
        return cls(
            permutation=tuple(int(i) for i in obj["permutation"]),
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
    counts: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


def _permutation_tuples(config):
    """Permutations a validated config enumerates, lexicographic or sampled."""
    d = config.dim1 * config.dim2
    if config.mode == "exhaustive":
        return list(itertools.permutations(range(d)))
    rng = np.random.default_rng(config.seed)
    seen = set()
    out = []
    while len(out) < config.sample_size:
        p = tuple(int(i) for i in rng.permutation(d))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def enumerate_permutation_gates(dim1, dim2, mode="exhaustive", sample_size=0, seed=0):
    """Yield permutation gates, lexicographic or seeded distinct sample."""
    config = CensusConfig(dim1, dim2, mode=mode, sample_size=sample_size, seed=seed)
    for p in _permutation_tuples(config):
        yield UnitaryGate.from_permutation(dim1, dim2, p)


def _classify_one(perm, config):
    gate = UnitaryGate.from_permutation(config.dim1, config.dim2, perm)
    t0 = time.perf_counter()
    cls = classify(
        gate,
        strategy=config.strategy,
        epsilons=config.epsilons,
        jump_tol=config.jump_tol,
        seed=config.seed,
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

    The first record of a permutation wins.  A corrupt line or an unknown
    verdict raises :class:`CensusFileError` with its line number; with
    ``repair=True`` only an unparseable final line (an interrupted append)
    is truncated away instead.
    """
    if not os.path.exists(path):
        raise CensusFileError(f"{path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return None, {}
    try:
        header_hash = json.loads(lines[0])["config_hash"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
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
