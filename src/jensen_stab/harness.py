"""End-to-end experiment driver: generate, perturb, stabilize, verify.

An experiment is fully determined by its config (carrier, base solution,
noise, methods, budgets): reports are bit-reproducible given the same
config. Stage failures are recorded by stage name and the partial report
is still emitted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable

from .carrier import NO_MEAN, BUNDLED_CARRIERS, Carrier, bundled_carrier, carrier_from_dict, validate_carrier
from .defect import inequality_suite, jensen_defect
from .errors import FormatError, JensenStabError
from .funcspace import DEFAULT_TOL, NOISE_TYPES, BoundedFn, noise_from_dict
from .records import _cpair, _list, _number, _parse_cnum, _require_finite_complex, require_count, require_tolerance
from .stabilize import (
    DEFAULT_CONV_TOL,
    DEFAULT_N_MAX,
    METHODS,
    StabilizationResult,
    jensen_approximant,
    phi_mean_construction,
)
from .verify import AgreementReport, VerificationReport, method_agreement, verify_solution

SCHEMA = "jensen-stab/report/v1"


@dataclass
class ExperimentConfig:
    """Everything that determines one experiment, seed included."""

    carrier: str | dict = "s3"
    base_constant: complex = 0j
    base_linear: list[complex] | None = None
    noise_type: str = "none"
    noise_amplitude: float = 0.0
    noise_seed: int = 0
    methods: list[str] = field(default_factory=lambda: ["mean", "dyadic"])
    folner_k: int | None = None
    dyadic_n: int = DEFAULT_N_MAX
    conv_tol: float = DEFAULT_CONV_TOL
    tol: float = DEFAULT_TOL
    component_dim: int = 1
    identity_powers: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self) -> None:
        for name in ("noise_amplitude", "tol", "conv_tol"):
            require_tolerance(getattr(self, name), name)
        _require_finite_complex(self.base_constant, "base constant")
        if self.base_linear is not None:
            if not isinstance(self.base_linear, (list, tuple)):
                raise FormatError(f"base_linear must be a list, got {self.base_linear!r}")
            for a in self.base_linear:
                _require_finite_complex(a, "base linear")
        # Any integer is a seed, 0 and negative ones included; a bool is not.
        if isinstance(self.noise_seed, bool) or not isinstance(self.noise_seed, int):
            raise FormatError(f"noise_seed must be an integer, got {self.noise_seed!r}")
        require_count(self.component_dim, "component_dim")
        require_count(self.dyadic_n, "dyadic_n")
        if self.folner_k is not None:
            require_count(self.folner_k, "folner_k")
        if not self.methods:
            raise FormatError(f"methods must name at least one of {METHODS}")
        for m in self.methods:
            if m not in METHODS:
                raise FormatError(f"unknown method {m!r}; expected one of {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise FormatError(f"methods must name each method once, got {list(self.methods)!r}")
        if self.noise_type not in ("none", *NOISE_TYPES):
            raise FormatError(f"unknown noise type {self.noise_type!r}")
        # 2.0**n, the weight of the power-2^n identity, is finite up to n = 1023.
        powers = self.identity_powers
        if not powers or not all(isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= 1023 for n in powers):
            raise FormatError(
                f"identity_powers must be a nonempty list of integers from 1 to 1023, got {list(powers)!r}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise FormatError(f"experiment config must be a JSON object, got {type(data).__name__}")
        base = data.get("base") or {}
        noise = data.get("noise") or {}
        if not (isinstance(base, dict) and isinstance(noise, dict)):
            raise FormatError("config fields 'base' and 'noise' must be JSON objects")
        linear = _list(base, "linear", None)
        return cls(
            carrier=data.get("carrier", "s3"),
            base_constant=_parse_cnum(base.get("constant", 0.0), "base constant"),
            base_linear=None if linear is None else [_parse_cnum(v, "base linear") for v in linear],
            noise_type=noise.get("type", "none"),
            noise_amplitude=_number(noise, "amplitude", 0.0, float),
            noise_seed=_number(noise, "seed", 0, int),
            methods=list(_list(data, "methods", ["mean", "dyadic"])),
            folner_k=data.get("folner_k"),
            dyadic_n=data.get("dyadic_n", DEFAULT_N_MAX),
            conv_tol=_number(data, "conv_tol", DEFAULT_CONV_TOL, float),
            tol=_number(data, "tol", DEFAULT_TOL, float),
            component_dim=_number(data, "component_dim", 1, int),
            identity_powers=tuple(_list(data, "identity_powers", (1, 2, 3))),
        )

    def to_dict(self) -> dict:
        return {
            "carrier": self.carrier,
            "base": {
                "constant": _cpair(self.base_constant),
                "linear": None if self.base_linear is None else [_cpair(a) for a in self.base_linear],
            },
            "noise": {
                "type": self.noise_type,
                "amplitude": self.noise_amplitude,
                "seed": self.noise_seed,
            },
            "methods": list(self.methods),
            "folner_k": self.folner_k,
            "dyadic_n": self.dyadic_n,
            "conv_tol": self.conv_tol,
            "tol": self.tol,
            "component_dim": self.component_dim,
            "identity_powers": list(self.identity_powers),
        }


def resolve_carrier(spec: str | dict) -> Carrier:
    """The carrier of a config: one shared instance per bundled name, so its
    validation and held geometry are built once per process; a carrier
    dict is built afresh."""
    if isinstance(spec, str):
        if spec.lower() in BUNDLED_CARRIERS:
            return _shared_carrier(spec.lower())
        raise FormatError(f"unknown carrier name {spec!r}; bundled: {sorted(BUNDLED_CARRIERS)}")
    return carrier_from_dict(spec)


@cache
def _shared_carrier(name: str) -> Carrier:
    return bundled_carrier(name)


def _component_seed(seed: int, j: int) -> int:
    return seed + j


def perturb(f: BoundedFn, noise_type: str, amplitude: float, seed: int = 0) -> BoundedFn:
    """Add bounded deterministic noise: sup |perturbed - f| <= amplitude,
    so the Jensen defect of the result is at most 4 * amplitude."""
    if noise_type == "none" or amplitude == 0.0:
        return f
    return f.perturbed(noise_from_dict({"type": noise_type, "amplitude": amplitude, "seed": seed}))


def build_function(config: ExperimentConfig, c: Carrier, component: int = 0) -> BoundedFn:
    base = c.exact_solution(config.base_constant, config.base_linear)
    seed = _component_seed(config.noise_seed, component)
    return perturb(base, config.noise_type, config.noise_amplitude, seed)


def _error(stage: str, exc: JensenStabError) -> dict:
    return {"stage": stage, "error": f"{type(exc).__name__}: {exc}"}


def _scalar_run(config: ExperimentConfig, c: Carrier, component: int, timing: dict) -> dict:
    errors: list[dict] = []
    tol = config.tol

    def stage(name: str, fn: Callable[[], Any]) -> Any:
        """fn(), or None with its JensenStabError recorded under the stage name."""
        t0 = time.perf_counter()
        try:
            return fn()
        except JensenStabError as exc:
            errors.append(_error(name, exc))
            return None
        finally:
            timing[f"{name}[{component}]"] = time.perf_counter() - t0

    f = stage("generate", lambda: build_function(config, c, component))
    defect_report = None if f is None else stage("defect", lambda: jensen_defect(f))
    if defect_report is None:
        return {"errors": errors, "pass": False}
    delta = defect_report.delta
    analytic = None if config.noise_type == "none" else 4.0 * config.noise_amplitude
    consistent = True if analytic is None else bool(delta <= analytic + tol)
    mean_capable = c.mean_capability != NO_MEAN

    phi = None
    if "mean" in config.methods and mean_capable:
        phi = stage("phi_construction", lambda: phi_mean_construction(f, config.folner_k))
    records = stage("inequalities", lambda: inequality_suite(f, phi=phi, delta=delta, tol=tol))

    # Every method is stabilized, then all results are verified in one call.
    # A method's error, from either stage, keeps its place in method order.
    first = len(errors)
    results: dict[str, StabilizationResult] = {}
    for method in config.methods:
        res = stage(f"stabilize:{method}", lambda: jensen_approximant(
            f, method, delta=delta, folner_k=config.folner_k, n_max=config.dyadic_n, conv_tol=config.conv_tol, phi=phi
        ))
        if res is not None:
            results[method] = res
    failed = dict(zip([m for m in config.methods if m not in results], errors[first:]))
    del errors[first:]
    checked = stage("verify", lambda: verify_solution(f, results, phi=phi, n_list=config.identity_powers, tol=tol))
    verified: dict[str, VerificationReport] = {}
    for method, got in checked.items():
        if isinstance(got, JensenStabError):
            failed[method] = _error(f"verify:{method}", got)
        else:
            verified[method] = got
    errors[first:first] = [failed[m] for m in config.methods if m in failed]

    agreement = None
    if "mean" in results and "dyadic" in results:
        agreement = stage("agreement", lambda: method_agreement(f, results["mean"], results["dyadic"], tol=tol))
    elif "mean" in config.methods and not mean_capable:
        agreement = AgreementReport(status="skipped_no_mean")

    return {
        "defect": defect_report.to_dict(),
        "defect_consistency": {"analytic_bound": analytic, "holds": consistent},
        "inequalities": [r.to_dict() for r in records or []],
        "stabilization": {m: r.to_dict() for m, r in results.items()},
        "verification": {m: v.to_dict() for m, v in verified.items()},
        "agreement": None if agreement is None else agreement.to_dict(),
        "errors": errors,
        "pass": bool(
            records and all(r.holds for r in records)
            and verified and all(v.passed for v in verified.values())
            and all(m in verified or (m == "mean" and not mean_capable) for m in config.methods)
            and (agreement is None or agreement.status == "skipped_no_mean" or agreement.holds)
            and consistent
            and all("CapabilityError" in e["error"] for e in errors)
        ),
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the full pipeline and return the report dict.

    The report is deterministic for a fixed config apart from the "timing"
    subtree, which holds wall-clock diagnostics only.
    """
    timing: dict[str, float] = {}
    t0 = time.perf_counter()
    report: dict[str, Any] = {"schema": SCHEMA, "config": config.to_dict()}

    try:
        c = resolve_carrier(config.carrier)
    except JensenStabError as exc:
        report["errors"] = [_error("carrier", exc)]
        report["pass"] = False
        return report
    report["carrier"] = {"name": c.name, "kind": c.kind, "size": c.size}
    validation = validate_carrier(c)
    report["validation"] = validation.to_dict()
    if not validation.ok:
        report["errors"] = [{"stage": "validation", "error": "carrier axioms violated"}]
        report["pass"] = False
        return report

    if config.component_dim == 1:
        body = _scalar_run(config, c, 0, timing)
        report.update(body)
    else:
        components = []
        for j in range(config.component_dim):
            components.append(_scalar_run(config, c, j, timing))
        report["components"] = components
        deltas = [comp.get("defect", {}).get("delta") for comp in components]
        report["vector_summary"] = {
            "component_dim": config.component_dim,
            "delta_max": max((d for d in deltas if d is not None), default=None),
            "pass": all(comp.get("pass") for comp in components),
        }
        report["pass"] = bool(report["vector_summary"]["pass"])

    timing["total"] = time.perf_counter() - t0
    report["timing"] = timing
    return report
