"""Spans and counters around the calls into each layer of jensen_stab.

The tracer wraps layer functions at the names their callers resolve:
``harness`` imports ``jensen_defect`` and ``phi_mean_construction`` by
name, ``defect`` imports ``max_scan`` by name, so a wrapper installed only
on the defining module would silently miss those calls. Methods are
wrapped on their class, which every caller resolves through.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans partition the time spent inside the
program. Spans are aggregated per name as they close (calls, total time,
self time) rather than kept one by one: one pass of ``finite_four`` makes
84,584 leaf ``eval_many`` calls alone.

Noise draws are not wrapped one by one (millions per pass). They are
counted as the box volume of every dense grid build plus the final size of
each noise object's per-point memo, which grows by one per draw outside a
grid build.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Any, Callable

from jensen_stab import carrier, defect, funcspace, harness, scan, stabilize, verify

LAYERS = ("carrier", "funcspace", "scan", "defect", "stabilize", "verify", "harness")

After = Callable[[tuple, dict, Any], None]


class Tracer:
    """Installs wrappers on entry and removes them on exit (a context manager)."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._noises: list[funcspace.SeededUniformNoise] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: After | None = None) -> Callable:
        stack = self._stack
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                record[0] += 1
                record[1] += dur
                record[2] += dur - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        """Zero every span and counter (at the start of a traced pass)."""
        for record in self.spans.values():
            record[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._noises.clear()

    def end_item(self) -> None:
        """Count the per-point draws of the noise objects the item created."""
        self.counts["memo_draws"] += sum(len(n._memo) for n in self._noises)
        self._noises.clear()

    # -- counters ------------------------------------------------------------

    def _count_eval(self, args, kwargs, result) -> None:
        self.counts["eval_calls"] += 1
        self.counts["eval_points"] += len(result)

    def _count_grid(self, args, kwargs, result) -> None:
        lo, hi = args[1], args[2]
        self.counts["grid_builds"] += 1
        self.counts["grid_points"] += math.prod(int(b) - int(a) + 1 for a, b in zip(lo, hi))

    def _count_scan(self, args, kwargs, result) -> None:
        n = max(0, int(args[0]))
        self.counts["scan_calls"] += 1
        self.counts["scan_items"] += n
        self.counts["scan_chunks"] += -(-n // scan._CHUNK)

    def _count_pairs(self, args, kwargs, result) -> None:
        self.counts["pairs_domain"] += args[1][0].shape[0]
        self.counts["pairs_scanned"] += result[2]

    def _count_levels(self, args, kwargs, result) -> None:
        if result.method in ("dyadic", "dyadic_full"):
            self.counts["dyadic_levels"] += result.iterations_or_k
        elif result.method == "forti_sikorska":
            self.counts["fs_levels"] += result.iterations_or_k

    def _count_report(self, args, kwargs, report) -> None:
        errors = report.get("errors", [])
        self.counts["experiments"] += 1
        self.counts["stage_errors"] += len(errors)
        self.counts["capability_errors"] += sum("CapabilityError" in e["error"] for e in errors)

    def _counter(self, key: str) -> After:
        def bump(args, kwargs, result) -> None:
            self.counts[key] += 1

        return bump

    # -- patching ------------------------------------------------------------

    def _patches(self) -> list[tuple[object, str, str, After | None]]:
        F, C = funcspace, carrier
        table: list[tuple[object, str, str, After | None]] = []
        for cls in (C.FiniteCarrier, C.LatticeCarrier):
            for attr in ("compose_many", "involute_many", "square_many", "window_pair_arrays"):
                table.append((cls, attr, "carrier.ops", None))
        table += [
            (C.FiniteCarrier, "window_elements", "carrier.ops", None),
            (C.LatticeCarrier, "window_points", "carrier.ops", None),
            (C.LatticeCarrier, "folner_points", "carrier.ops", None),
            (harness, "bundled_carrier", "carrier.build", None),
            (harness, "carrier_from_dict", "carrier.build", None),
            (harness, "validate_carrier", "carrier.validate", self._counter("validate_calls")),
        ]
        for cls in (F.FiniteTableFn, F.LatticeTableFn, F.OracleFn):
            table.append((cls, "eval_many", "funcspace.eval", self._count_eval))
        for cls in (F.EvenPart, F.OddPart, F.LeftTranslate, F.RightTranslate):
            table.append((cls, "eval_many", "funcspace.view", None))
        table += [
            (F.SeededUniformNoise, "values", "funcspace.noise", None),
            (F.SeededUniformNoise, "value", "funcspace.noise", None),
            (F.SeededUniformNoise, "_rebuild_grid", "funcspace.noise", self._count_grid),
            (F.ParityNoise, "values", "funcspace.noise", None),
            (F.ParityNoise, "value", "funcspace.noise", None),
            (F, "function_from_dict", "funcspace.build", None),
            (defect, "max_scan", "scan.max_scan", self._count_scan),
            (defect, "_combo_scan", "defect.pair_scan", self._count_pairs),
            (defect, "_one_var_scan", "defect.point_scan", None),
            (defect._MinusConst, "eval_many", "defect.view", None),
        ]
        for owner in (harness, verify, stabilize, defect):
            table.append((owner, "jensen_defect", "defect.jensen", None))
        for owner in (verify, defect):
            table.append((owner, "drygas_defect", "defect.drygas", None))
        for owner in (harness, defect):
            table.append((owner, "inequality_suite", "defect.suite", None))
        for owner in (harness, stabilize):
            table.append((owner, "phi_mean_construction", "stabilize.phi", self._counter("phi_builds")))
        table += [
            (stabilize._ProbeFn, "eval_many", "stabilize.view", None),
            (harness, "verify_solution", "verify.solution", None),
            (harness, "method_agreement", "verify.agreement", None),
            (harness, "run_experiment", "harness.run_experiment", self._count_report),
        ]
        return table

    def _by_method(self, fn: Callable) -> Callable:
        """jensen_approximant with one span per construction method."""
        variants = {m: self._wrap(f"stabilize.{m}", fn, self._count_levels) for m in stabilize.METHODS}

        def traced(*args, **kwargs):
            method = args[1] if len(args) > 1 else kwargs["method"]
            return variants[method](*args, **kwargs)

        return traced

    def _install(self, owner: object, attr: str, replacement: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for owner, attr, name, after in self._patches():
            self._install(owner, attr, self._wrap(name, getattr(owner, attr), after))
        for owner in (harness, verify):
            self._install(owner, "jensen_approximant", self._by_method(owner.jensen_approximant))
        noise_init = funcspace.SeededUniformNoise.__init__
        noises = self._noises

        def register(noise, *args, **kwargs):
            noise_init(noise, *args, **kwargs)
            noises.append(noise)

        self._install(funcspace.SeededUniformNoise, "__init__", register)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        c = self.counts

        def self_s(*names: str) -> float:
            return sum(self.spans[n][2] for n in names if n in self.spans)

        def total_s(*names: str) -> float:
            return sum(self.spans[n][1] for n in names if n in self.spans)

        out: dict[str, float] = {
            "funcspace.noise_draws": c["grid_points"] + c["memo_draws"],
            "funcspace.grid_builds": c["grid_builds"],
            "funcspace.grid_points": c["grid_points"],
            "funcspace.noise_s": self_s("funcspace.noise"),
            "funcspace.eval_calls": c["eval_calls"],
            "funcspace.eval_points": c["eval_points"],
            "funcspace.eval_s": self_s("funcspace.eval"),
            "scan.calls": c["scan_calls"],
            "scan.items": c["scan_items"],
            "scan.chunks": c["scan_chunks"],
            "scan.s": self_s("scan.max_scan"),
            "defect.jensen_s": total_s("defect.jensen"),
            "defect.drygas_s": total_s("defect.drygas"),
            "defect.suite_s": total_s("defect.suite"),
            "defect.pairs_scanned": c["pairs_scanned"],
            "defect.pairs_domain": c["pairs_domain"],
            "stabilize.phi_builds": c["phi_builds"],
            "stabilize.phi_s": total_s("stabilize.phi"),
            "stabilize.mean_s": total_s("stabilize.mean"),
            "stabilize.dyadic_s": total_s("stabilize.dyadic"),
            "stabilize.dyadic_full_s": total_s("stabilize.dyadic_full"),
            "stabilize.dyadic_levels": c["dyadic_levels"],
            "stabilize.fs_s": total_s("stabilize.forti_sikorska"),
            "stabilize.fs_levels": c["fs_levels"],
            "verify.solution_s": total_s("verify.solution"),
            "verify.agreement_s": total_s("verify.agreement"),
            "carrier.validate_calls": c["validate_calls"],
            "carrier.validate_s": total_s("carrier.validate"),
            "harness.experiments": c["experiments"],
            "harness.stage_errors": c["stage_errors"],
            "harness.capability_errors": c["capability_errors"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s(*(n for n in self.spans if n.startswith(layer + ".")))
        return out
