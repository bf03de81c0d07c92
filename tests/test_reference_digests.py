"""Reports stay byte-identical: seed-0 reports against the benchmark's reference digests.

Reruns every ``finite_four`` item, two ``int1`` items of ``sweep100``
(one with parity noise, one with seeded noise) and the first ``int2_four``
item (2-d oracle evaluation and noise grids), and compares the sha256 of
each report without its ``timing`` subtree with ``perfbench/reference.json``.
A refactor that moves any reported number or label by one bit turns this red.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())
PICKS = {"finite_four": range(15), "sweep100": (72, 80), "int2_four": (0,)}


@pytest.mark.parametrize("name", sorted(PICKS))
def test_seed0_reports_match_the_reference_digests(name):
    assert REFERENCE["seed"] == 0
    wl = workloads.Workload(name, 0)
    ref = REFERENCE["workloads"][name]
    got = {i: workloads.digest(wl.run(wl.items[i])) for i in PICKS[name]}
    want = {i: ref[i]["digest"] for i in PICKS[name]}
    assert [ref[i]["item"] for i in PICKS[name]] == [wl.items[i].label for i in PICKS[name]]
    assert got == want
