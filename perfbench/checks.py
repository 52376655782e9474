"""Output checks: each study's summary against reference.json.

Kept apart from workloads.py so that run.py can check outputs without
importing signfem, numpy or scipy itself.
"""

import json
import math
from pathlib import Path
from typing import List

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# summary keys compared with a relative tolerance; every other key must match
# the reference exactly
TOLERANCE = {
    "x_err": 1e-6, "l2_err": 1e-6, "cross_err": 1e-6, "flux_l1": 1e-6,
    "lam": 1e-9, "vector_lam": 1e-9, "scalar_lam": 1e-9,
    "beta_n": 1e-6, "sup": 1e-9,
}
# gate on the rational residual of every emitted eigenpair
RESIDUAL_GATE = 1e-8


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def check(summary: dict, reference: dict) -> List[str]:
    """Problems with one study's summary; an empty list means it passed."""
    problems = []
    if summary.get("residual_max", 0.0) > RESIDUAL_GATE:
        problems.append(f"residual {summary['residual_max']:.3e} above {RESIDUAL_GATE}")
    for key, want in reference.items():
        if key == "residual_max":
            continue
        got = summary.get(key)
        tol = TOLERANCE.get(key)
        if tol is None:
            ok = got == want
        else:
            ok = (isinstance(got, list) and len(got) == len(want)
                  and all(math.isclose(g, w, rel_tol=tol, abs_tol=1e-15)
                          for g, w in zip(got, want)))
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems
