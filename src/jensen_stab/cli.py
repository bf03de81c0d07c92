"""Command-line interface: jensen-stab <subcommand>.

Subcommands: check-carrier, defect, inequalities, stabilize, verify,
experiment. Carrier arguments accept either a JSON file path or a bundled
carrier name (z2, z6, s3, q8, m3, int1, int2). A missing or malformed
input file, like any other package error, prints ``error: ...`` and exits
with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .carrier import BUNDLED_CARRIERS, Carrier, bundled_carrier, carrier_from_dict, validate_carrier
from .defect import drygas_defect, inequality_suite, jensen_defect
from .errors import FormatError, JensenStabError
from .funcspace import BoundedFn, function_from_dict, function_to_dict
from .harness import ExperimentConfig, run_experiment
from .stabilize import (
    DEFAULT_CONV_TOL,
    DEFAULT_N_MAX,
    StabilizationResult,
    jensen_approximant,
    phi_mean_construction,
)
from .verify import verify_solution


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_carrier_arg(arg: str) -> Carrier:
    if arg.lower() in BUNDLED_CARRIERS:
        return bundled_carrier(arg)
    if Path(arg).exists():
        return carrier_from_dict(_load_json(arg), name=Path(arg).stem)
    raise JensenStabError(
        f"carrier {arg!r} is neither a bundled name ({', '.join(BUNDLED_CARRIERS)}) nor a file"
    )


def _load_function_arg(arg: str, carrier: Carrier) -> BoundedFn:
    return function_from_dict(_load_json(arg), carrier)


def _cmd_check_carrier(args: argparse.Namespace) -> int:
    c = _resolve_carrier_arg(args.carrier)
    report = validate_carrier(c)
    if args.report:
        _write_json(args.report, report.to_dict())
    if report.ok:
        print(f"carrier {c.name}: ok (kind={report.kind}, is_group={report.is_group})")
        return 0
    v = report.violations[0]
    print(f"carrier {c.name}: INVALID ({v.axiom} at witness {v.witness}: {v.detail})")
    return 1


def _cmd_defect(args: argparse.Namespace) -> int:
    c = _resolve_carrier_arg(args.carrier)
    f = _load_function_arg(args.function, c)
    report = drygas_defect(f) if args.drygas else jensen_defect(f)
    if args.report:
        _write_json(args.report, report.to_dict())
    print(
        f"{report.equation} defect delta={report.delta:.12g} at witness {report.witness} "
        f"({report.exactness}, {report.domain_size} pairs)"
    )
    return 0


def _cmd_inequalities(args: argparse.Namespace) -> int:
    c = _resolve_carrier_arg(args.carrier)
    f = _load_function_arg(args.function, c)
    phi = None
    mean_budget = 0.0
    if c.mean_capability != "none":
        phi, diag = phi_mean_construction(f, args.folner_k)
        mean_budget = diag.phi_error_budget
    records = inequality_suite(f, phi=phi, mean_budget=mean_budget, tol=args.tol)
    if args.report:
        _write_json(args.report, {"inequalities": [r.to_dict() for r in records]})
    ok = True
    for r in records:
        state = "PASS" if r.holds else "FAIL"
        if r.status == "not_evaluated":
            state = "SKIP"
        measured = "-" if r.measured_sup is None else f"{r.measured_sup:.6g}"
        print(f"{r.name:8s} measured={measured:>12s} bound={r.bound:.6g} {state}")
        ok = ok and r.holds
    return 0 if ok else 1


def _method_from_cli(name: str) -> str:
    return name.replace("-", "_")


def _cmd_stabilize(args: argparse.Namespace) -> int:
    c = _resolve_carrier_arg(args.carrier)
    f = _load_function_arg(args.function, c)
    result = jensen_approximant(
        f,
        _method_from_cli(args.method),
        folner_k=args.folner_k,
        n_max=args.dyadic_n,
        conv_tol=args.conv_tol,
    )
    _write_json(args.out, function_to_dict(result.g))
    sidecar = args.report or str(Path(args.out).with_suffix("")) + ".report.json"
    _write_json(sidecar, result.to_dict())
    print(
        f"stabilized with {result.method}: offset={result.offset:.12g}, "
        f"error_budget={result.error_budget:.3e}, wrote {args.out}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    c = _resolve_carrier_arg(args.carrier)
    f = _load_function_arg(args.function, c)
    g = _load_function_arg(args.solution, c)
    offset = f.eval(c.neutral)
    budget = 0.0
    method = "external"
    if args.solution_report:
        side = _load_json(args.solution_report)
        offset = complex(side["offset"][0], side["offset"][1])
        budget = float(side["error_budget"])
        method = side.get("method", method)
    delta = args.delta if args.delta is not None else jensen_defect(f).delta
    result = StabilizationResult(
        g=g,
        offset=offset,
        method=method,
        variant="external",
        iterations_or_k=0,
        convergence_trace=[],
        error_budget=budget,
        delta_used=delta,
    )
    report = verify_solution(f, result, delta=delta, tol=args.tol)
    if args.report:
        _write_json(args.report, report.to_dict())
    print(
        f"verify[{method}]: stability_sup={report.stability.stability_sup:.6g} "
        f"bound={report.stability.bound:.6g} pass={report.passed}"
    )
    return 0 if report.passed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, noise_seed=args.seed)
    report = run_experiment(config)
    if args.report:
        _write_json(args.report, report)
    print(f"experiment on {report.get('carrier', {}).get('name')}: pass={report['pass']}")
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jensen-stab",
        description="Stabilize approximate Jensen-equation solutions and verify the 3-delta bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-carrier", help="Validate a carrier's axioms.")
    p.add_argument("--carrier", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_check_carrier)

    p = sub.add_parser("defect", help="Measure the Jensen (or Drygas) defect of a function.")
    p.add_argument("--carrier", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--drygas", action="store_true", help="measure the Drygas residual instead")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("inequalities", help="Measure the intermediate inequality chain.")
    p.add_argument("--carrier", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--folner-k", type=int, default=None, dest="folner_k")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_inequalities)

    p = sub.add_parser("stabilize", help="Construct the nearby exact solution g.")
    p.add_argument("--method", required=True, choices=["mean", "dyadic", "dyadic-full", "forti-sikorska"])
    p.add_argument("--carrier", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folner-k", type=int, default=None, dest="folner_k")
    p.add_argument("--dyadic-n", type=int, default=DEFAULT_N_MAX, dest="dyadic_n")
    p.add_argument("--tol", "--conv-tol", type=float, default=DEFAULT_CONV_TOL, dest="conv_tol")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("verify", help="Verify a solution file against a function.")
    p.add_argument("--carrier", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--solution-report", dest="solution_report")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("experiment", help="Run a config end to end and emit the report.")
    p.add_argument("--config", required=True)
    p.add_argument("--report")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JensenStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
