#!/usr/bin/env python3
"""Run one study of a workload in a fresh interpreter and write its record.

    python3 perfbench/study.py WORKLOAD STUDY OUT_DIR SMALL TRACE RESULT_JSON

run.py starts one of these per study, so every study pays its own imports
and lazy initialisation, as a user's process does, and its peak resident
memory does not depend on which studies ran before it.  The record holds
``ready`` (the monotonic clock when set-up ended), the study's wall time,
its output summary or the error it raised, the peak resident memory, and,
with TRACE 1, its spans and noted values.

STUDY ``-`` only sets up: it imports signfem, numpy and scipy, validates the
workload's configs, and records the workload's study names and the
environment the studies run in.
"""

import ctypes
import dataclasses
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import signfem  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    eps = float(np.finfo(np.longdouble).eps)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "longdouble_eps": eps,
        # the 1e-10 residual gate of deep source solves relies on an 80-bit
        # longdouble carry in signfem.solvers._refined_solve
        "longdouble_wider_than_double": eps < float(np.finfo(np.float64).eps),
    }


def main(argv) -> int:
    workload, study, out, small, trace, result = argv
    small, trace = small == "1", trace == "1"
    if Path(signfem.__file__).resolve().parent != SRC / "signfem":
        sys.exit(f"perfbench: signfem imported from {signfem.__file__}, not {SRC}")
    workloads.validate(workload, small)
    record = {"ready": time.perf_counter()}
    if study == "-":
        record["studies"] = list(workloads.WORKLOADS[workload])
        record["env"] = environment()
    else:
        tracer = Tracer().install() if trace else None
        t0 = time.perf_counter()
        try:
            record["summary"] = workloads.WORKLOADS[workload][study](Path(out), small)
        except Exception:  # reported to run.py, which counts the study as failed
            record["error"] = traceback.format_exc(limit=4)
        record["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            record["spans"] = [dataclasses.astuple(s) for s in tracer.spans]
            record["events"] = tracer.events
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
