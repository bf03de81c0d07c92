"""Reports stay byte-identical: seed-0 reports against the benchmark's reference digests.

Reruns every ``finite_four`` item, every ``sweep100`` item (finite
carriers with their witnesses and phi diagnostics; on ``int1``, parity and
seeded noise and dyadic orbits through the sparse noise store), every
``int2_four`` item (2-d oracle evaluation, noise grids and sparse 2-d
orbits) and every ``scan_z2w12`` item (pair scans of 390,625 pairs on Z^2,
one carrier for all three), and compares the sha256 of each report
without its ``timing`` subtree with ``perfbench/reference.json``.
A refactor that moves any reported number or label by one bit turns this red.

Three S3 experiments with the involution sigma(x) = a x^-1 a are pinned
here as well: no reference item uses an involution other than the inverse.
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

from jensen_stab import ExperimentConfig, bundled_carrier, run_experiment  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())
PICKS = {"finite_four": range(15), "sweep100": range(100), "int2_four": range(3), "scan_z2w12": range(3)}


@pytest.mark.parametrize("name", sorted(PICKS))
def test_seed0_reports_match_the_reference_digests(name):
    assert REFERENCE["seed"] == 0
    wl = workloads.Workload(name, 0)
    ref = REFERENCE["workloads"][name]
    got = {i: workloads.digest(wl.run(wl.items[i])) for i in PICKS[name]}
    want = {i: ref[i]["digest"] for i in PICKS[name]}
    assert [ref[i]["item"] for i in PICKS[name]] == [wl.items[i].label for i in PICKS[name]]
    assert got == want


TWISTED_S3_DIGESTS = {
    0.01: "bb173e4c1e299fd1f93750c0f749974d46eaeef790a31cd09045ef428d770bc6",
    0.1: "9b2ec37a378a188bec07cd75e6231245228ccbf39595d85f911fa5d9f48614cd",
    1.0: "44fc27e6e9dd805b80d5816df1e708ddbcff06375265f8809ceab40765ff2edf",
}


@pytest.mark.parametrize("eps", sorted(TWISTED_S3_DIGESTS))
def test_twisted_s3_experiment_passes_with_its_pinned_digest(eps):
    # S3 as a carrier dict with sigma(x) = a x^-1 a for the transposition a = (0 1).
    s3 = bundled_carrier("s3")
    a = s3.elements.index("102")
    spec = s3.to_dict()
    spec["involution"] = [int(s3.op[s3.op[a, s3.involution[x]], a]) for x in range(s3.size)]
    assert spec["involution"] != s3.involution.tolist()
    report = run_experiment(ExperimentConfig(
        carrier=spec, base_constant=3 + 2j, noise_type="seeded_uniform", noise_amplitude=eps,
        methods=list(workloads.ALL_METHODS),
    ))
    assert report["pass"], report["errors"]
    assert sorted(report["verification"]) == sorted(workloads.ALL_METHODS)
    assert workloads.digest(report) == TWISTED_S3_DIGESTS[eps]
