"""End-to-end experiment driver: generate, perturb, stabilize, verify.

An experiment is fully determined by its config (carrier, base solution,
noise, methods, budgets): reports are bit-reproducible given the same
config. Stage failures are recorded by stage name and the partial report
is still emitted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .carrier import (
    NO_MEAN,
    BUNDLED_CARRIERS,
    Carrier,
    FiniteCarrier,
    LatticeCarrier,
    bundled_carrier,
    carrier_from_dict,
    validate_carrier,
)
from .defect import inequality_suite, jensen_defect
from .errors import FormatError, JensenStabError
from .funcspace import (
    DEFAULT_TOL,
    BoundedFn,
    FiniteTableFn,
    OracleFn,
    _cpair,
    _parse_cnum,
    noise_from_dict,
)
from .stabilize import (
    DEFAULT_CONV_TOL,
    DEFAULT_N_MAX,
    METHODS,
    jensen_approximant,
    phi_mean_construction,
)
from .verify import method_agreement, verify_solution

SCHEMA = "jensen-stab/report/v1"


def _number(section: dict, key: str, default: Any, kind: type) -> Any:
    """section[key] (or default) converted by ``kind``; FormatError if it cannot be."""
    v = section.get(key, default)
    try:
        return kind(v)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {v!r}") from None


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
        if self.noise_amplitude < 0:
            raise FormatError("noise amplitude must be nonnegative")
        if self.component_dim < 1:
            raise FormatError("component_dim must be >= 1")
        k = self.folner_k
        if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
            raise FormatError(f"folner_k must be null or an integer >= 1, got {k!r}")
        for m in self.methods:
            if m not in METHODS:
                raise FormatError(f"unknown method {m!r}; expected one of {METHODS}")
        if self.noise_type not in ("none", "parity", "seeded_uniform"):
            raise FormatError(f"unknown noise type {self.noise_type!r}")
        powers = self.identity_powers
        if not powers or not all(isinstance(n, int) and n >= 1 for n in powers):
            raise FormatError(f"identity_powers must be a nonempty list of integers >= 1, got {list(powers)!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise FormatError(f"experiment config must be a JSON object, got {type(data).__name__}")
        base = data.get("base") or {}
        noise = data.get("noise") or {}
        if not (isinstance(base, dict) and isinstance(noise, dict)):
            raise FormatError("config fields 'base' and 'noise' must be JSON objects")
        linear = base.get("linear")
        return cls(
            carrier=data.get("carrier", "s3"),
            base_constant=_parse_cnum(base.get("constant", 0.0), "base constant"),
            base_linear=None if linear is None else [_parse_cnum(v, "base linear") for v in linear],
            noise_type=noise.get("type", "none"),
            noise_amplitude=_number(noise, "amplitude", 0.0, float),
            noise_seed=_number(noise, "seed", 0, int),
            methods=list(data.get("methods", ["mean", "dyadic"])),
            folner_k=data.get("folner_k"),
            dyadic_n=_number(data, "dyadic_n", DEFAULT_N_MAX, int),
            conv_tol=_number(data, "conv_tol", DEFAULT_CONV_TOL, float),
            tol=_number(data, "tol", DEFAULT_TOL, float),
            component_dim=_number(data, "component_dim", 1, int),
            identity_powers=tuple(data.get("identity_powers", (1, 2, 3))),
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
    if isinstance(spec, str):
        if spec.lower() in BUNDLED_CARRIERS:
            return bundled_carrier(spec)
        raise FormatError(f"unknown carrier name {spec!r}; bundled: {sorted(BUNDLED_CARRIERS)}")
    return carrier_from_dict(spec)


def generate_solution(c: Carrier, constant: complex = 0j, linear: list[complex] | None = None) -> BoundedFn:
    """An exact Jensen solution: a constant on finite carriers with
    sigma = inverse, an affine function a . x + c on lattices."""
    if isinstance(c, FiniteCarrier):
        if linear is not None and any(a != 0 for a in linear):
            raise FormatError("finite carriers admit only constant base solutions")
        return FiniteTableFn(c, np.full(c.size, complex(constant), dtype=np.complex128))
    assert isinstance(c, LatticeCarrier)
    return OracleFn(c, linear, complex(constant), noise=None)


def _component_seed(seed: int, j: int) -> int:
    return seed + j


def perturb(f: BoundedFn, noise_type: str, amplitude: float, seed: int = 0) -> BoundedFn:
    """Add bounded deterministic noise: sup |perturbed - f| <= amplitude,
    so the Jensen defect of the result is at most 4 * amplitude."""
    if noise_type == "none" or amplitude == 0.0:
        return f
    noise = noise_from_dict({"type": noise_type, "amplitude": amplitude, "seed": seed})
    if isinstance(f, OracleFn):
        if f.noise is not None:
            raise FormatError("oracle already carries noise; perturb the noise-free base")
        return OracleFn(f.carrier, f.linear, f.constant, noise)
    if isinstance(f, FiniteTableFn):
        vals = f.values + np.array(
            [noise.value((i,)) for i in range(f.carrier.size)], dtype=np.complex128
        )
        return FiniteTableFn(f.carrier, vals)
    raise FormatError(f"cannot perturb function of type {type(f).__name__}")


def build_function(config: ExperimentConfig, c: Carrier, component: int = 0) -> BoundedFn:
    base = generate_solution(c, config.base_constant, config.base_linear)
    seed = _component_seed(config.noise_seed, component)
    return perturb(base, config.noise_type, config.noise_amplitude, seed)


def _scalar_run(config: ExperimentConfig, c: Carrier, component: int, timing: dict) -> dict:
    report: dict[str, Any] = {}
    errors: list[dict] = []
    tol = config.tol

    def stage(name: str):
        def wrap(fn):
            t0 = time.perf_counter()
            try:
                return fn()
            except JensenStabError as exc:
                errors.append({"stage": name, "error": f"{type(exc).__name__}: {exc}"})
                return None
            finally:
                timing[f"{name}[{component}]"] = time.perf_counter() - t0

        return wrap

    f = stage("generate")(lambda: build_function(config, c, component))
    if f is None:
        report["errors"] = errors
        report["pass"] = False
        return report

    defect_report = stage("defect")(lambda: jensen_defect(f))
    if defect_report is None:
        report["errors"] = errors
        report["pass"] = False
        return report
    delta = defect_report.delta
    report["defect"] = defect_report.to_dict()
    analytic = defect_report.analytic_bound
    if analytic is None and config.noise_type != "none":
        analytic = 4.0 * config.noise_amplitude
    report["defect_consistency"] = {
        "analytic_bound": analytic,
        "holds": True if analytic is None else bool(delta <= analytic + tol),
    }

    phi = None
    phi_budget = 0.0
    stab_reports: dict[str, dict] = {}
    verif_reports: dict[str, dict] = {}
    results: dict[str, Any] = {}

    mean_capable = c.mean_capability != NO_MEAN

    if "mean" in config.methods and mean_capable:
        built = stage("phi_construction")(lambda: phi_mean_construction(f, config.folner_k))
        if built is not None:
            phi, phi_diag = built
            phi_budget = phi_diag.phi_error_budget

    records = stage("inequalities")(
        lambda: inequality_suite(f, phi=phi, delta=delta, mean_budget=phi_budget, tol=tol)
    )
    report["inequalities"] = [r.to_dict() for r in records] if records else []

    for method in config.methods:
        res = stage(f"stabilize:{method}")(
            lambda m=method: jensen_approximant(
                f, m, delta=delta, folner_k=config.folner_k, n_max=config.dyadic_n, conv_tol=config.conv_tol
            )
        )
        if res is None:
            continue
        results[method] = res
        stab_reports[method] = res.to_dict()
        ver = stage(f"verify:{method}")(
            lambda r=res, m=method: verify_solution(
                f,
                r,
                delta=delta,
                phi=phi if m == "mean" else None,
                phi_budget=phi_budget,
                n_list=config.identity_powers,
                tol=tol,
            )
        )
        if ver is not None:
            verif_reports[method] = ver.to_dict()

    report["stabilization"] = stab_reports
    report["verification"] = verif_reports

    agreement = None
    if "mean" in results and "dyadic" in results:
        agreement = stage("agreement")(
            lambda: method_agreement(f, results["mean"], results["dyadic"], delta=delta, tol=tol)
        )
    elif "mean" in config.methods and not mean_capable:
        from .verify import AgreementReport

        agreement = AgreementReport(status="skipped_no_mean")
    report["agreement"] = agreement.to_dict() if agreement is not None else None

    suite_ok = all(r.holds for r in records) if records else False
    methods_ok = all(v.get("pass") for v in verif_reports.values()) if verif_reports else False
    requested_ok = all(
        (m in verif_reports) or (m == "mean" and not mean_capable) for m in config.methods
    )
    agreement_ok = agreement is None or agreement.status == "skipped_no_mean" or bool(agreement.holds)
    consistency_ok = bool(report["defect_consistency"]["holds"])
    report["errors"] = errors
    capability_errors = [e for e in errors if "CapabilityError" in e["error"]]
    report["pass"] = bool(
        suite_ok
        and methods_ok
        and requested_ok
        and agreement_ok
        and consistency_ok
        and len(errors) == len(capability_errors)
    )
    return report


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
        report["errors"] = [{"stage": "carrier", "error": f"{type(exc).__name__}: {exc}"}]
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
