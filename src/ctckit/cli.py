"""Command-line front end: scenario analysis, probes, census, plot data.

Output is machine-first: reports are JSON on stdout, sweep data is CSV.
Exit codes are a stable scripting contract: 0 success, 2 input error,
3 numerical diagnostic (solver failure or selection non-convergence).
The ``CTCKIT_LOG`` environment variable sets the log level.
"""

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import sys

import numpy as np

from .census import CensusConfig, CensusFileError, run_census, summarize
from .deutsch import SolverDiagnostic, fixed_point_set, membership
from .discontinuity import (
    DEFAULT_EPSILONS,
    JUMP_TOL,
    STRATEGIES,
    _probe,
    classify,
    generate_probe_families,
    witness_csv_rows,
)
from .reference import reference_center, reference_gate
from .selection import SelectionRule, ctc_channel, select
from .states import DensityOperator, UnitaryGate, from_bloch, von_neumann_entropy
from .linalg import matrix_to_json

log = logging.getLogger("ctckit")

# ``--rule`` names; a scenario's rule block may also give the kind itself.
_RULE_NAMES = {
    "max-entropy": "max_entropy",
    "min-entropy": "min_entropy",
    "constant": "constant_index",
}


class CLIInputError(Exception):
    """Bad file, malformed JSON, or inconsistent scenario contents."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIInputError(f"{path} is not valid JSON: {exc}") from exc


def parse_gate(obj):
    try:
        return UnitaryGate.from_json(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise CLIInputError(f"bad gate: {exc}") from exc


def parse_rho(obj):
    """Accept a matrix object, ``{"matrix": ...}``, or ``{"product": [...]}``."""
    try:
        if isinstance(obj, dict) and "product" in obj:
            factors = [DensityOperator.from_json(f) for f in obj["product"]]
            if not factors:
                raise ValueError("product form needs at least one factor")
            m = factors[0].matrix
            for f in factors[1:]:
                m = np.kron(m, f.matrix)
            return DensityOperator(m)
        if isinstance(obj, dict) and "matrix" in obj:
            return DensityOperator.from_json(obj["matrix"])
        return DensityOperator.from_json(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise CLIInputError(f"bad rho: {exc}") from exc


def parse_rule(obj, cli_name=None):
    """Rule from a scenario's rule block; a ``--rule`` flag name overrides its kind."""
    try:
        obj = dict(obj or {})
        scenario_kind = obj.pop("kind", "max_entropy")
        name = cli_name or scenario_kind
        return SelectionRule(kind=_RULE_NAMES.get(name, name), **obj)
    except (TypeError, ValueError) as exc:
        raise CLIInputError(f"bad rule: {exc}") from exc


def parse_scenario(path):
    """``(gate, rho, rule block)`` of a scenario file; the block is not parsed."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "gate" not in obj or "rho" not in obj:
        raise CLIInputError(f"{path}: scenario must contain 'gate' and 'rho'")
    gate = parse_gate(obj["gate"])
    rho = parse_rho(obj["rho"])
    if rho.dim != gate.dim1:
        raise CLIInputError(
            f"{path}: rho dim {rho.dim} does not match gate dim1 {gate.dim1}"
        )
    return gate, rho, obj.get("rule")


def _parse_epsilons(text):
    if text is None:
        return DEFAULT_EPSILONS
    try:
        eps = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise CLIInputError(f"bad --epsilons list: {exc}") from exc
    if not eps or any(e <= 0 for e in eps):
        raise CLIInputError("--epsilons must be positive numbers")
    return eps


def _emit(report, out_path=None):
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_csv(rows, out_path=None):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gate_from_args(args):
    if getattr(args, "paper_example", False):
        return reference_gate()
    if getattr(args, "gate", None):
        return parse_gate(_load_json(args.gate))
    if getattr(args, "scenario", None):
        return parse_scenario(args.scenario)[0]
    raise CLIInputError("provide --gate, --scenario, or --paper-example")


def cmd_fixed_points(args):
    gate, rho, _ = parse_scenario(args.scenario)
    fps = fixed_point_set(gate, rho)
    _emit(fps.to_json(), args.out)
    return 0


def cmd_select(args):
    gate, rho, block = parse_scenario(args.scenario)
    rule = parse_rule(block, args.rule)
    fps = fixed_point_set(gate, rho)
    sel = select(fps, rule)
    report = sel.to_json()
    report["k"] = fps.k
    _emit(report, args.out)
    return 0 if sel.converged else 3


def cmd_evolve(args):
    gate, rho, block = parse_scenario(args.scenario)
    rule = parse_rule(block, args.rule)
    rho_hat, sel = ctc_channel(gate, rho, rule)
    report = {
        "sigma": sel.sigma.to_json(),
        "entropy": sel.entropy,
        "rho_hat": rho_hat.to_json(),
        "selection": {
            "iterations": sel.iterations,
            "converged": sel.converged,
            "gradient_norm": sel.gradient_norm,
        },
    }
    _emit(report, args.out)
    if not sel.converged:
        print("selection did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_probe(args):
    gate = _gate_from_args(args)
    rule = parse_rule(None, args.rule)
    strategy = "paper_example" if args.paper_example else args.strategy
    epsilons = sorted(set(_parse_epsilons(args.epsilons)), reverse=True)
    rows = [["path", "direction", "epsilon", "k", "entropy", "sigma", "rho_hat"]]
    solved = {}  # paths that share a center or a direction solve it once
    for fam in generate_probe_families(gate, strategy, seed=args.seed):
        result = _probe(gate, fam, epsilons, epsilons, rule, solved)
        rows.append([
            fam.label, "center", 0.0, result.center_fps.k,
            result.center_selection.entropy,
            json.dumps(result.center_selection.sigma.to_json()),
            json.dumps(result.center_rho_hat.to_json()),
        ])
        for rec in result.records:
            rows.append([
                fam.label, rec.direction, rec.epsilon,
                rec.k if rec.k is not None else "",
                rec.entropy if rec.entropy is not None else "",
                json.dumps(rec.sigma.to_json()) if rec.sigma is not None else rec.error,
                json.dumps(rec.rho_hat.to_json()) if rec.rho_hat is not None else "",
            ])
    _write_csv(rows, args.out)
    return 0


def cmd_classify(args):
    gate = _gate_from_args(args)
    rule = parse_rule(None, args.rule)
    strategy = "paper_example" if args.paper_example else args.strategy
    epsilons = _parse_epsilons(args.epsilons)
    cls = classify(
        gate,
        strategy=strategy,
        epsilons=epsilons,
        jump_tol=args.jump_tol,
        rule=rule,
        seed=args.seed,
    )
    report = {
        "verdict": cls.verdict,
        "sigma_jump": cls.sigma_jump,
        "rho_hat_jump": cls.rho_hat_jump,
        "best_path": cls.witness["best_path"],
        "refinements_used": cls.witness["refinements_used"],
        "witness_digest": cls.witness_digest(),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        _write_csv(witness_csv_rows(cls), args.out)
    return 0


def cmd_census(args):
    obj = _load_json(args.config)
    overrides = {"workers": args.workers, "out_path": args.out}
    try:
        config = dataclasses.replace(
            CensusConfig.from_json(obj),
            **{k: v for k, v in overrides.items() if v is not None},
        )
    except (TypeError, ValueError) as exc:
        raise CLIInputError(f"bad census config: {exc}") from exc
    log.info("census of %d x %d gates -> %s", config.dim1, config.dim2, config.out_path)
    summary = run_census(config, resume=args.resume)
    print(json.dumps(summary.to_json(), indent=2, sort_keys=True))
    if args.summary_csv:
        fractions = summary.to_json()
        del fractions["counts"]
        _write_csv([list(fractions), list(fractions.values())], args.summary_csv)
    return 0


def cmd_bloch_slice(args):
    if args.paper_example:
        gate, rho = reference_gate(), reference_center()
    elif args.scenario:
        gate, rho, _ = parse_scenario(args.scenario)
    else:
        raise CLIInputError("provide --scenario or --paper-example")
    if gate.dim2 != 2:
        raise CLIInputError("bloch-slice requires a qubit second factor (dim2 = 2)")
    if args.resolution < 2:
        raise CLIInputError("--resolution must be at least 2")
    fps = fixed_point_set(gate, rho)
    axis = np.linspace(-1.0, 1.0, args.resolution)
    rows = [["x", "z", "member", "entropy"]]
    for x in axis:
        for z in axis:
            if x * x + z * z > 1.0 + 1e-12:
                rows.append([x, z, False, ""])
                continue
            sigma = from_bloch((x, 0.0, z))
            rows.append([
                x, z, membership(fps, sigma).ok, von_neumann_entropy(sigma)
            ])
    _write_csv(rows, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ctckit",
        description="Fixed-point analysis of quantum evolutions through a "
        "chronology-violating region",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="also write the JSON report to this path")

    p = sub.add_parser("fixed-points", help="solve the self-consistency condition")
    add_scenario(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("select", help="apply a selection rule to the fixed-point set")
    add_scenario(p)
    p.add_argument("--rule", choices=_RULE_NAMES)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evolve", help="full induced evolution: solve, select, emit")
    add_scenario(p)
    p.add_argument("--rule", choices=_RULE_NAMES)
    p.set_defaults(func=cmd_evolve)

    def add_probe_flags(p):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--gate", help="gate JSON file")
        src.add_argument("--scenario", help="scenario JSON file (gate part is used)")
        src.add_argument("--paper-example", action="store_true",
                         help="use the bundled reference gate and path")
        p.add_argument("--strategy", choices=STRATEGIES, default="vertex_pairs")
        p.add_argument("--epsilons", help="comma-separated decreasing grid")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rule", choices=_RULE_NAMES)

    p = sub.add_parser("probe", help="per-epsilon records along probe paths (CSV)")
    add_probe_flags(p)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("classify", help="discontinuity verdict for a gate")
    add_probe_flags(p)
    p.add_argument("--jump-tol", type=float, default=JUMP_TOL)
    p.add_argument("--out", help="write the witness CSV to this path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("census", help="classify many permutation gates")
    p.add_argument("--config", required=True, help="census config JSON file")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="override the record file path")
    p.add_argument("--summary-csv", help="also write a one-row summary CSV")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("bloch-slice", help="membership grid over an xz Bloch slice (CSV)")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--scenario", help="scenario JSON file")
    src.add_argument("--paper-example", action="store_true")
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_bloch_slice)

    return parser


def main(argv=None):
    level = os.environ.get("CTCKIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CensusFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverDiagnostic as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
