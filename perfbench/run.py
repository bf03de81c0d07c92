"""The jensen-stab benchmark.

    python3 perfbench/run.py --workload sweep100 --seed 0 --seconds 50 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) from the root of a
source checkout, against the package under ``src/``. Each workload is a
closed loop: one caller runs the workload's items in order, each after the
previous one returned, and repeats whole passes until ``--seconds`` have
elapsed (at least one pass). Every output is checked; at seed 0 also
against ``reference.json``.

Scans run with ``JENSEN_STAB_WORKERS=1``: with more workers,
``SeededUniformNoise.values`` can raise ``IndexError`` when scan threads
grow its shared grid concurrently, so a multi-worker arm has to wait until
noise evaluation is free of side effects.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics declared in ``BENCHMARK.json``; with ``--trace 1``
the run alternates untraced and traced passes and the last line carries
the declared per-layer metrics. Lines before it list every metric the run
computed, with its unit, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# One thread of execution: scan workers (see above) and BLAS threads. With
# OpenBLAS's default of a thread per core, int2_four ran slower alone and
# several times slower beside another busy process on a 2-core host.
THREAD_ENV = {
    "JENSEN_STAB_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# setup_s is the median of this many set-ups: this process's own and the
# rest in fresh interpreters, so that imports are paid each time. A set-up
# takes about 0.15 s, shorter than the host's slow bursts, so an odd count
# well above 3 keeps the median out of a single burst.
SETUP_SAMPLES = 7
PROBE = "import sys, run; print(repr(run.setup(sys.argv[1], int(sys.argv[2]))[1]))"


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def use_checkout_source() -> None:
    """Pin the thread counts and import jensen_stab from this checkout."""
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def setup(name: str, seed: int):
    """Import the package, generate the items, resolve and validate their
    carriers and run the first item once; returns (workload, seconds)."""
    start = time.perf_counter()
    use_checkout_source()
    import workloads

    wl = workloads.Workload(name, seed)
    wl.run(wl.items[0])
    return wl, time.perf_counter() - start


def _probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, name, str(seed)],
        cwd=BENCH,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(wl, tracer=None) -> tuple[float, list[float], list]:
    """One closed-loop pass; returns (wall, per-item latencies, outputs).

    A raised exception is the item's output: it is counted as a failure
    when the outputs are checked, after the pass.
    """
    latencies, outputs = [], []
    start = time.perf_counter()
    for item in wl.items:
        t0 = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:  # noqa: BLE001 - a failing item is a result
            out = exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_item()
        outputs.append(out)
    return time.perf_counter() - start, latencies, outputs


class Checker:
    """Checks pass outputs and keeps the tallies."""

    def __init__(self, wl, reference: list[dict] | None) -> None:
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counter_drift: list[str] = []

    def check(self, outputs: list) -> int:
        """Tally one pass; returns how many reports equal the reference bytes."""
        import workloads

        identical = 0
        for i, (item, out) in enumerate(zip(self.wl.items, outputs)):
            ref = None if self.reference is None else self.reference[i]
            self.attempted += 1
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                problems = workloads.check(item, out, ref)
                identical += ref is not None and workloads.digest(out) == ref["digest"]
            if problems:
                self.failed += 1
                self.problems += [f"{item.label}: {p}" for p in problems]
        return identical


def _load_reference(wl) -> list[dict] | None:
    if wl.seed != 0:
        return None
    entries = json.loads((BENCH / "reference.json").read_text())["workloads"][wl.name]
    labels = [item.label for item in wl.items]
    if [e["item"] for e in entries] != labels:
        _fail(f"reference.json does not list the items of {wl.name}; regenerate it with make_reference.py")
    return entries


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _pass_time(latencies: list[list[float]], stat) -> float:
    """One pass, each item at ``stat`` of its latencies over the passes."""
    return sum(stat(times) for times in zip(*latencies))


def timed_run(wl, seconds: float, checker: Checker) -> dict[str, float]:
    import workloads

    scans = wl.items[0].config is None
    walls, latencies, identical = [], [], []
    pairs = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, lat, outputs = run_pass(wl)
        walls.append(wall)
        latencies.append(lat)
        identical.append(checker.check(outputs))
        if scans:
            pairs += sum(workloads.pair_positions(o) for o in outputs if not isinstance(o, Exception))
    flat = [x for lat in latencies for x in lat]
    metrics = {
        "wall_s": _pass_time(latencies, min),
        "wall_median_s": _pass_time(latencies, statistics.median),
        "item_p50_s": statistics.median(flat),
        "item_p90_s": _p90(flat),
        "items_per_s": len(flat) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": checker.failed / checker.attempted,
        "passes": len(walls),
        "items": len(flat),
        "harness.reports_identical": identical[0],
    }
    lattice = [x for lat in latencies for item, x in zip(wl.items, lat) if item.lattice]
    if lattice:
        metrics["lattice_p50_s"] = statistics.median(lattice)
    if scans:
        metrics["pairs_per_s"] = pairs / sum(flat)
    return metrics


def traced_run(wl, seconds: float, checker: Checker) -> dict[str, float]:
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        _, lat, outputs = run_pass(wl)
        untraced.append(lat)
        checker.check(outputs)
        tracer.reset()
        with tracer:
            wall, lat, outputs = run_pass(wl, tracer)
        traced.append(lat)
        m = tracer.metrics()
        m["harness.reports_identical"] = checker.check(outputs)
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - sum(m[f"{layer}.self_s"] for layer in LAYERS)
        per_pass.append(m)
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                checker.counter_drift.append(f"counter {key} differs between traced passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = _pass_time(traced, min) - _pass_time(untraced, min)
    metrics["trace.passes"] = len(per_pass)
    return metrics


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "1"
    return "count"


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import hashlib

    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "jensen_stab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workers": int(os.environ["JENSEN_STAB_WORKERS"]),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "jensen_stab" / "__init__.py").is_file() or not spec_path.is_file():
        _fail(f"run from a source checkout: {SRC / 'jensen_stab'} or {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    try:
        wl, setup_s = setup(args.workload, args.seed)
    except ValueError as exc:
        _fail(str(exc))
    checker = Checker(wl, _load_reference(wl))

    if args.trace:
        declared = spec["per_layer"]
        metrics = traced_run(wl, args.seconds, checker)
    else:
        declared = spec["end_to_end"]
        setups = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = timed_run(wl, args.seconds, checker)
        metrics["setup_s"] = statistics.median(setups)

    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for key in sorted(metrics):
        print(f"  {key:32s} {metrics[key]!r:>24} {_unit(key)}")
    for problem in checker.problems[:20] + checker.counter_drift:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0 and not checker.counter_drift,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
