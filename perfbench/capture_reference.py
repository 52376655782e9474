#!/usr/bin/env python3
"""Rewrite reference.json from the current program's outputs.

    python3 perfbench/capture_reference.py

Runs one pass of every workload, full size and small (self-test) size, and
stores each study's output summary.  Only do this for a program whose
outputs were checked by other means; the benchmark fails any study whose
output drifts from what is stored here.
"""

import json
import sys

import run


def main() -> int:
    workloads = [w["name"] for w in run._spec()["workloads"]]
    reference = {}
    for scale in ("full", "small"):
        reference[scale] = {}
        for name in workloads:
            record = run.measure(name, seed=0, seconds=0, trace=False,
                                 small=scale == "small", reference={})
            reference[scale][name] = record["passes"][0]["outputs"]
            print(f"{scale} {name}: {sorted(reference[scale][name])}", file=sys.stderr)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
