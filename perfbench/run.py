#!/usr/bin/env python3
"""signfem benchmark: one workload, timed, checked, reported as one JSON line.

    python3 perfbench/run.py --workload cli_verbs --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  A run
first starts ``SETUP_SAMPLES`` fresh interpreters that only import signfem,
numpy and scipy, validate the workload's configs and record the
environment.  It then runs passes
over the workload's studies, in an order drawn from the seed, for
``--seconds``: at least one pass, and another only while it is expected to
end within that time.  Every study runs in a fresh interpreter of its own
(``study.py``), whose set-up is one more ``setup_s`` sample.  Each study's
output is checked against ``reference.json``; a study that raises, exits
non-zero or fails its check counts as failed and the pass goes on.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced pass and then traced passes, and reports the per-layer
metrics plus the tracing overhead.  Human-readable lines start with ``#``;
the last line of stdout is the result object.  The full record, spans
included for traced runs, goes to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
from tracing import Span, layer_metrics, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 150


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _require_program() -> None:
    if not (SRC / "signfem" / "__init__.py").is_file():
        sys.exit(f"perfbench: signfem sources not found under {SRC}")


# ------------------------------------------------------------------ passes

def run_study(workload: str, study: str, out: Path, small: bool, trace: bool) -> dict:
    """Run one study (or, for ``-``, only the set-up) in a fresh interpreter.

    Adds ``setup_s``: from starting the interpreter to the end of its set-up.
    A child that crashes or times out comes back as a record with ``error``.
    """
    result = out / "record.json"
    argv = [sys.executable, str(HERE / "study.py"), workload, study, str(out),
            str(int(small)), str(int(trace)), str(result)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{study} did not finish within {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"{study} exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    record = json.loads(result.read_text())
    record["setup_s"] = record["ready"] - t0
    return record


def run_pass(workload: str, order: List[str], work: Path, small: bool,
             reference: dict, trace: bool = False) -> dict:
    """One pass over the studies, each in its own interpreter."""
    times: Dict[str, float] = {}
    outputs: Dict[str, dict] = {}
    failures: Dict[str, List[str]] = {}
    setup, rss, traced = [], [], []
    for name in order:
        out = work / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rec = run_study(workload, name, out, small, trace)
        if "wall_s" in rec:
            times[name] = rec["wall_s"]
            setup.append(rec["setup_s"])
            rss.append(rec["peak_rss_mb"])
        if "summary" not in rec:
            failures[name] = [rec["error"]]
            continue
        outputs[name] = rec["summary"]
        problems = checks.check(rec["summary"], reference.get(name, {}))
        if name not in reference:
            problems.append("no reference output")
        if problems:
            failures[name] = problems
        if trace:
            traced.append(([Span(*s) for s in rec["spans"]],
                           [tuple(e) for e in rec["events"]]))
    result = {"order": order, "wall_s": sum(times.values()), "study_s": times,
              "peak_rss_mb": max(rss, default=0.0), "setup_s": setup,
              "outputs": outputs, "failures": failures}
    if trace:
        result["spans"], result["events"] = merge(traced)
    return result


def _quartiles(values: List[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False, reference: Optional[dict] = None) -> dict:
    """Run one benchmark invocation; returns the full record."""
    if workload not in {w["name"] for w in _spec()["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    _require_program()
    if reference is None:
        reference = checks.load_reference()["small" if small else "full"][workload]
    rng = random.Random(seed)

    def next_order():
        order = names[:]
        rng.shuffle(order)
        return order

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    passes, traced = [], []
    try:
        setup = []
        for _ in range(SETUP_SAMPLES):
            rec = run_study(workload, "-", work, small, False)
            if "error" in rec:
                raise SystemExit(f"perfbench: set-up failed: {rec['error']}")
            setup.append(rec["setup_s"])
        names, env = rec["studies"], rec["env"]
        if trace:
            passes.append(run_pass(workload, next_order(), work, small, reference))
        # start another pass only while it is expected to end within `seconds`
        start, lengths = time.perf_counter(), []
        while not lengths or (time.perf_counter() - start
                              + statistics.median(lengths) <= seconds):
            t0 = time.perf_counter()
            (traced if trace else passes).append(
                run_pass(workload, next_order(), work, small, reference, trace))
            lengths.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = passes + traced
    attempted = sum(len(p["order"]) for p in done)
    failed = sum(len(p["failures"]) for p in done)
    setup += [s for p in done for s in p["setup_s"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "small": small, "env": env, "setup_s": setup,
        "passes": passes, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "studies": {name: _quartiles([p["study_s"][name] for p in passes
                                      if name in p["study_s"]])
                    for name in names if any(name in p["study_s"] for p in passes)},
        "wall_s": _quartiles([p["wall_s"] for p in passes]),
        "peak_rss_mb": _quartiles([p["peak_rss_mb"] for p in passes]),
    }
    if trace:
        per_pass = [layer_metrics(p["spans"], p["events"]) for p in traced]
        for p in traced:
            p["spans"] = [dataclasses.astuple(s) for s in p["spans"]]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - record["wall_s"]["median"])
        record["layers"] = layers
        record["traced_passes"] = traced
    return record


def result_line(record: dict) -> dict:
    """The result object: the end-to-end metrics, or the per-layer ones when traced."""
    spec = _spec()
    if record["trace"]:
        values = record["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": record["wall_s"]["median"],
                  "setup_s": statistics.median(record["setup_s"]),
                  "peak_rss_mb": record["peak_rss_mb"]["median"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(record: dict) -> List[str]:
    """Human-readable lines: environment, failures, studies, layers."""
    lines = [f"# env {json.dumps(record['env'])}"]
    if not record["env"]["longdouble_wider_than_double"]:
        lines.append("# WARNING longdouble is no wider than double; deep source "
                     "solves may miss the 1e-10 residual gate")
    lines.append(f"# setup_s samples {record['setup_s']}")
    for p in record["passes"] + record.get("traced_passes", []):
        for name, problems in p["failures"].items():
            lines.append(f"# FAILED {name}: {problems[0].strip()}")
    lines.append(f"# fail_frac {record['fail_frac']:.4f} "
                 f"({record['failed']} of {record['attempted']} studies)")
    rows = [("wall_s", record["wall_s"]), ("peak_rss_mb", record["peak_rss_mb"])]
    rows += [(f"study.{name}_s", q) for name, q in record["studies"].items()]
    for name, q in rows:
        lines.append(f"# {name} median {q['median']:.3f} q1 {q['q1']:.3f} "
                     f"q3 {q['q3']:.3f} n {q['n']}")
    for name, value in record.get("layers", {}).items():
        lines.append(f"# layer {name} {value:.6g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps a running study
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for line in report(record):
        print(line)
    print(f"# record {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
