"""The benchmark's workloads: their items, how one item runs, how it is checked.

Every workload is a list of items generated from the workload seed. One
pass runs the items in order, each after the previous one returned (a
closed loop with one caller). The program only ever sees the generated
configs and function descriptions; every item builds its functions afresh,
so noise caches start empty as they do for a user's experiment.

Items call the program through module attributes (``harness.run_experiment``,
``defect.jensen_defect``), never through names bound here, so the tracer's
patches see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from jensen_stab import defect, funcspace, harness
from jensen_stab.funcspace import DEFAULT_TOL
from jensen_stab.harness import ExperimentConfig

EPSILONS = (0.01, 0.1, 1.0)
ALL_METHODS = ["mean", "dyadic", "dyadic_full", "forti_sikorska"]
SWEEP_METHODS = ["mean", "dyadic", "dyadic_full"]
FINITE_CARRIERS = ("z2", "z6", "s3", "q8", "m3")
# Carriers without an invariant mean: their "mean" stage records an expected
# CapabilityError.
NO_MEAN_CARRIERS = ("m3",)
SCAN_CARRIER = {"kind": "lattice", "dim": 2, "window": 12, "folner_max": 64}
# Noise seeds of workload seed s start at s * SEED_STRIDE. Every workload has
# fewer items than this, so different workload seeds never share noise.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Item:
    """One unit of work: a harness experiment, or a set of pair scans."""

    label: str
    lattice: bool
    config: ExperimentConfig | None = None
    functions: tuple[tuple[str, dict], ...] = ()


def sweep_configs(seed: int) -> list[ExperimentConfig]:
    """The acceptance suite's 100-run sweep; seed 0 reproduces it exactly.

    72 finite experiments (S3, Q8, Z6 at three amplitudes, 8 noise seeds
    each) and 28 on the 1-d lattice. Another seed offsets every noise seed.
    """
    off = seed * SEED_STRIDE
    configs: list[ExperimentConfig] = []
    for name in ("s3", "q8", "z6"):
        for eps in EPSILONS:
            for s in range(8):
                configs.append(
                    ExperimentConfig(
                        carrier=name,
                        base_constant=3 + 2j,
                        noise_type="seeded_uniform",
                        noise_amplitude=eps,
                        noise_seed=off + s,
                        methods=list(SWEEP_METHODS),
                    )
                )
    lattice = []
    lattice += [("parity", eps, off) for eps in EPSILONS]
    lattice += [("seeded_uniform", eps, off + s) for eps in EPSILONS for s in range(8)]
    lattice.append(("seeded_uniform", 0.1, off + 8))
    for noise_type, eps, noise_seed in lattice:
        configs.append(
            ExperimentConfig(
                carrier="int1",
                base_constant=5.0,
                base_linear=[2.0],
                noise_type=noise_type,
                noise_amplitude=eps,
                noise_seed=noise_seed,
                methods=list(SWEEP_METHODS),
                folner_k=512,
            )
        )
    return configs


def _config_item(cfg: ExperimentConfig) -> Item:
    label = f"{cfg.carrier}/{cfg.noise_type}/eps={cfg.noise_amplitude}/seed={cfg.noise_seed}"
    return Item(label=label, lattice=cfg.carrier in ("int1", "int2"), config=cfg)


def _sweep100(seed: int) -> list[Item]:
    return [_config_item(cfg) for cfg in sweep_configs(seed)]


def _int2_four(seed: int) -> list[Item]:
    off = seed * SEED_STRIDE
    return [
        _config_item(
            ExperimentConfig(
                carrier="int2",
                base_constant=1.0,
                base_linear=[1.0, -2.0],
                noise_type="seeded_uniform",
                noise_amplitude=eps,
                noise_seed=off + i,
                methods=list(ALL_METHODS),
            )
        )
        for i, eps in enumerate(EPSILONS)
    ]


def _scan_z2w12(seed: int) -> list[Item]:
    off = seed * SEED_STRIDE
    items = []
    for i, eps in enumerate(EPSILONS):
        base = {"kind": "oracle", "linear": [[2.0, 0.0], [-1.0, 0.5]], "constant": [1.0, -1.0]}
        functions = (
            ("parity", {**base, "noise": {"type": "parity", "amplitude": eps, "seed": 0}}),
            ("seeded_uniform", {**base, "noise": {"type": "seeded_uniform", "amplitude": eps, "seed": off + i}}),
        )
        items.append(Item(label=f"Z^2 w12/eps={eps}/seed={off + i}", lattice=True, functions=functions))
    return items


def _finite_four(seed: int) -> list[Item]:
    off = seed * SEED_STRIDE
    items = []
    for name in FINITE_CARRIERS:
        for eps in EPSILONS:
            cfg = ExperimentConfig(
                carrier=name,
                base_constant=3 + 2j,
                noise_type="seeded_uniform",
                noise_amplitude=eps,
                noise_seed=off + len(items),
                methods=list(ALL_METHODS),
            )
            items.append(_config_item(cfg))
    return items


WORKLOADS = {
    "sweep100": _sweep100,
    "int2_four": _int2_four,
    "scan_z2w12": _scan_z2w12,
    "finite_four": _finite_four,
}


class Workload:
    """A workload's items with their carriers resolved and validated."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.items = WORKLOADS[name](seed)
        specs = {_spec_key(_carrier_spec(item)): _carrier_spec(item) for item in self.items}
        self.carriers = {}
        for key, spec in specs.items():
            c = harness.resolve_carrier(spec)
            if not harness.validate_carrier(c).ok:
                raise RuntimeError(f"carrier {key} fails its axioms")
            self.carriers[key] = c

    def run(self, item: Item) -> dict:
        """Run one item and return its report."""
        if item.config is not None:
            return harness.run_experiment(item.config)
        c = self.carriers[_spec_key(_carrier_spec(item))]
        out = {}
        for label, fdict in item.functions:
            f = funcspace.function_from_dict(fdict, c)
            jd = defect.jensen_defect(f)
            records = defect.inequality_suite(f, delta=jd.delta)
            dd = defect.drygas_defect(f)
            out[label] = {
                "jensen": jd.to_dict(),
                "inequalities": [r.to_dict() for r in records],
                "drygas": dd.to_dict(),
            }
        return out


def _carrier_spec(item: Item) -> str | dict:
    return item.config.carrier if item.config is not None else SCAN_CARRIER


def _spec_key(spec: str | dict) -> str:
    return spec if isinstance(spec, str) else json.dumps(spec, sort_keys=True)


# ----------------------------------------------------------------------------
# Output checks


def digest(report: dict) -> str:
    """sha256 of the report without its wall-clock ``timing`` subtree."""
    data = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def summary(report: dict) -> dict[str, float | None]:
    """The numbers compared against the reference: the defect, each method's
    stability sup and each inequality's measured sup."""
    if "schema" not in report:
        out: dict[str, float | None] = {}
        for label, part in report.items():
            out[f"{label}:jensen"] = part["jensen"]["delta"]
            out[f"{label}:drygas"] = part["drygas"]["delta"]
            for r in part["inequalities"]:
                out[f"{label}:{r['name']}"] = r["measured_sup"]
        return out
    out = {"delta": report.get("defect", {}).get("delta")}
    for method, ver in sorted(report.get("verification", {}).items()):
        out[f"stability:{method}"] = ver["stability"]["stability_sup"]
    for r in report.get("inequalities", []):
        out[r["name"]] = r["measured_sup"]
    return out


def pair_positions(report: dict) -> int:
    """Pair positions a scan item covered: the Jensen and Drygas scans and the
    four pair-domain inequalities (eq_2_13 to eq_2_16) per function."""
    total = 0
    for part in report.values():
        for key in ("jensen", "drygas"):
            d = part[key]
            total += d["domain_size"] if d["scanned_pairs"] is None else d["scanned_pairs"]
        total += 4 * part["jensen"]["domain_size"]
    return total


def check(item: Item, report: dict, reference: dict | None) -> list[str]:
    """Reasons the item's output is wrong; empty when it is correct."""
    problems: list[str] = []
    if item.config is not None:
        tol = item.config.tol
        if report.get("pass") is not True:
            problems.append("report has pass: false")
        for err in report.get("errors", []):
            expected = (
                item.config.carrier in NO_MEAN_CARRIERS
                and err["stage"] == "stabilize:mean"
                and err["error"].startswith("CapabilityError")
            )
            if not expected:
                problems.append(f"unexpected error in stage {err['stage']}: {err['error']}")
    else:
        tol = DEFAULT_TOL
        for label, part in report.items():
            for r in part["inequalities"]:
                if not r["holds"]:
                    problems.append(f"{label}: {r['name']} does not hold")
            jd = part["jensen"]
            if jd["analytic_bound"] is not None and jd["delta"] > jd["analytic_bound"] + tol:
                problems.append(f"{label}: defect {jd['delta']} exceeds 4 eps")
    if reference is not None:
        problems += _compare(summary(report), reference["values"], tol)
    return problems


def _compare(got: dict, want: dict, tol: float) -> list[str]:
    if got.keys() != want.keys():
        return [f"reported quantities {sorted(got)} differ from the reference {sorted(want)}"]
    problems = []
    for key, ref in want.items():
        val = got[key]
        if (val is None) != (ref is None) or (ref is not None and abs(val - ref) > tol):
            problems.append(f"{key} = {val!r}, reference {ref!r} (tol {tol})")
    return problems


def reference_entry(item: Item, report: dict) -> dict[str, Any]:
    return {"item": item.label, "digest": digest(report), "values": summary(report)}
