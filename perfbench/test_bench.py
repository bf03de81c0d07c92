"""Tests of the benchmark itself: its inputs, its output checks, its tracer.

Counter values are not asserted: later changes to the program move them
legitimately. What must hold is that they repeat exactly.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _acceptance_module():
    spec = importlib.util.spec_from_file_location("acceptance_sweep", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep100_seed0_is_the_acceptance_sweep():
    assert workloads.sweep_configs(0) == _acceptance_module()._sweep_configs()


def _reference(name: str) -> list[dict]:
    return json.loads((BENCH / "reference.json").read_text())["workloads"][name]


def test_check_accepts_reference_and_flags_drift():
    wl = workloads.Workload("finite_four", 0)
    ref = _reference("finite_four")
    for i in (0, 12):  # z2, and m3 with its expected CapabilityError
        report = wl.run(wl.items[i])
        assert workloads.check(wl.items[i], report, ref[i]) == []
        assert workloads.digest(report) == ref[i]["digest"]

    drifted = copy.deepcopy(report)
    drifted["defect"]["delta"] += 1e-6
    assert workloads.check(wl.items[12], drifted, ref[12])

    failed = copy.deepcopy(report)
    failed["pass"] = False
    assert workloads.check(wl.items[12], failed, None)

    wrong_error = copy.deepcopy(report)
    wrong_error["errors"] = [{"stage": "defect", "error": "IndexError: boom"}]
    assert workloads.check(wl.items[12], wrong_error, None)


def test_scan_check_flags_a_broken_inequality():
    wl = workloads.Workload("scan_z2w12", 0)
    report = wl.run(wl.items[0])
    assert workloads.check(wl.items[0], report, _reference("scan_z2w12")[0]) == []
    report["parity"]["inequalities"][0]["holds"] = False
    assert workloads.check(wl.items[0], report, None)


def _traced(wl, items) -> tuple[dict, float]:
    import time

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        for item in items:
            wl.run(item)
            tracer.end_item()
        wall = time.perf_counter() - start
    return tracer.metrics(), wall


@pytest.mark.parametrize(
    "name, picks",
    [("sweep100", (0, 72, 80)), ("finite_four", (0, 12)), ("scan_z2w12", (0,))],
)
def test_traced_counters_repeat_and_self_times_cover_the_run(name, picks):
    from jensen_stab import defect, harness

    originals = (harness.run_experiment, harness.jensen_defect, defect.max_scan)
    wl = workloads.Workload(name, 0)
    items = [wl.items[i] for i in picks]

    first, wall = _traced(wl, items)
    second, _ = _traced(wl, items)
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    assert counts == {k: v for k, v in second.items() if isinstance(v, int)}
    assert counts["funcspace.eval_calls"] > 0

    attributed = sum(first[f"{layer}.self_s"] for layer in LAYERS)
    assert 0.9 * wall <= attributed <= wall
    assert (harness.run_experiment, harness.jensen_defect, defect.max_scan) == originals
