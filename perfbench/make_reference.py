"""Write reference.json: the seed-0 outputs every later run is checked against.

    python3 perfbench/make_reference.py

Runs every workload's items once at seed 0 and records, per item, the
sha256 of its report without ``timing`` and the checked quantities (the
defect, each method's stability sup, each inequality's measured sup).
Refuses to write if any item fails its own checks.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.use_checkout_source()
    import workloads

    out: dict = {"seed": 0, "workloads": {}}
    for name in workloads.WORKLOADS:
        wl = workloads.Workload(name, 0)
        entries = []
        for item in wl.items:
            report = wl.run(item)
            problems = workloads.check(item, report, None)
            if problems:
                print(f"{name} {item.label}: {problems}", file=sys.stderr)
                return 1
            entries.append(workloads.reference_entry(item, report))
        out["workloads"][name] = entries
        print(f"{name}: {len(entries)} items", file=sys.stderr)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
