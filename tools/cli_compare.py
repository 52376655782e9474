#!/usr/bin/env python3
"""Compare two trees of tools/cli_outputs.sh under the tolerances of ROADMAP
aim 2, for changes whose outputs are not byte-identical (a factorization that
rounds differently, say).

    tools/cli_compare.py OUT_A OUT_B

OUT_A is the reference.  The two trees must hold the same files, and:
- exit codes, and every integer and label, match exactly;
- CSV value columns match to 1e-12 relative: |a - b| <= 1e-12 max(|a|, |b|);
- the difference columns (DIFFERENCES) are relative differences
  |x - y| / |y| of nearly equal values, so they are judged against the values
  they compare: |a - b| <= 1e-12;
- the per-triangle columns of field.csv and scalar.csv, and the data arrays
  of field.vtk, match normwise: max |a - b| / max |a| <= 1e-12 per column.
  The elementwise maximum relative difference is printed too; entries
  10^4-10^5 below their column's maximum carry the solve's cond * eps
  relatively, far above 1e-12;
- residual columns are skipped: they sit at rounding level and the 1e-8
  residual gate holds them.  So is curl_fraction on eps-critical rows, where
  rounding sets the eigenvectors of near-degenerate clusters;
- in stdout, stderr and the CSV comment lines the text between numbers
  matches (runs of blanks count as one), integers match exactly, and each
  printed float matches to 1e-12 relative or to one unit in its last printed
  digit (a rounding boundary crossed).  Floats below 1e-8 on both sides
  (residuals, drifts, mismatches, backward errors) are rounding level and
  are skipped;
- every other file (meshes, configs) is byte-identical.

Prints the largest difference per file and column over all runs, then every
violation, then how many files are byte-identical ("N of M files
byte-identical"), so a change that should round the same can show it.
Exits 0 when there is no violation, 1 otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import csv
import re
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np

RTOL = 1e-12
ROUNDING_LEVEL = 1e-8
DIFFERENCES = {"err_vs_finest", "err_vs_scalar_finest", "scalar_match_rel",
               "drift_last_two"}
SKIPPED = {"residual"}
NORMWISE = {"field.csv", "scalar.csv"}
VTK_ARRAYS = ("SCALARS", "VECTORS")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _is_int(s: str) -> bool:
    return s.lstrip("+-").isdigit()


def _is_float(s: str) -> bool:
    """A float cell as Python's repr writes it: with a point, an exponent, or
    inf/nan; integers and labels are compared as text."""
    try:
        float(s)
    except ValueError:
        return False
    return not _is_int(s)


class Report:
    """Largest difference per (file, column) and every violation."""

    def __init__(self):
        self.largest = {}       # (file, column, measure) -> (value, where)
        self.violations = []
        self.identical = self.files = 0

    def record(self, file, column, measure, value, where, limit=None):
        key = (file, column, measure)
        if key not in self.largest or value > self.largest[key][0]:
            self.largest[key] = (value, where)
        if limit is not None and not value <= limit:
            self.violate(where, f"{column}: {measure} {value:.3g} > {limit:g}")

    def violate(self, where, what):
        self.violations.append(f"{where}: {what}")

    def show(self):
        for (file, column, measure), (value, where) in sorted(self.largest.items()):
            at = f"  at {where}" if value else ""
            print(f"{file:16} {column:22} {measure:12} {value:9.3g}{at}")
        for v in self.violations:
            print(f"VIOLATION {v}")
        print(f"{len(self.violations)} violation(s)")
        print(f"{self.identical} of {self.files} files byte-identical")


def _rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    scale = np.maximum(abs(a), abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(a == b, 0.0, abs(a - b) / scale)


def _compare_values(rep, file, column, a, b, where, normwise=False,
                    difference=False):
    """Judge two columns of float cells (lists of str) under one rule."""
    x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    finite = np.isfinite(x) & np.isfinite(y)
    if not np.array_equal(x[~finite], y[~finite], equal_nan=True):
        rep.violate(where, f"{column}: non-finite entries differ")
    x, y = x[finite], y[finite]
    if not len(x):
        return
    if normwise:
        top = abs(x).max()
        diff = abs(x - y).max()
        rep.record(file, column, "normwise", diff / top if top else
                   (0.0 if diff == 0 else np.inf), where, RTOL)
        rep.record(file, column, "elementwise", float(_rel(x, y).max()), where)
    elif difference:
        rep.record(file, column, "absolute", float(abs(x - y).max()), where, RTOL)
    else:
        rep.record(file, column, "relative", float(_rel(x, y).max()), where, RTOL)


def _ulp(s: str) -> float:
    """One unit in the last printed digit of the number s."""
    return 10.0 ** Decimal(s).as_tuple().exponent


def _compare_text(rep, file, a: str, b: str, where):
    """Text between numbers exactly, integers exactly, printed floats to
    RTOL or one unit in their last printed digit."""
    skel_a = [" ".join(NUMBER.sub("#", line).split()) for line in a.splitlines()]
    skel_b = [" ".join(NUMBER.sub("#", line).split()) for line in b.splitlines()]
    if skel_a != skel_b:
        line = next((i for i, (p, q) in enumerate(zip(skel_a, skel_b)) if p != q),
                    min(len(skel_a), len(skel_b)))
        rep.violate(where, f"text differs outside numbers at line {line + 1}")
        return
    worst = 0.0
    for s, t in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if s == t:
            continue
        if _is_int(s) and _is_int(t):
            rep.violate(where, f"integer {s} != {t}")
            continue
        x, y = float(s), float(t)
        top = max(abs(x), abs(y))
        if top < ROUNDING_LEVEL:
            continue
        rel = abs(x - y) / top
        worst = max(worst, rel)
        if abs(x - y) > max(RTOL * top, min(_ulp(s), _ulp(t))):
            rep.violate(where, f"printed float {s} != {t} (relative {rel:.3g})")
    rep.record(file, "printed floats", "relative", worst, where)


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    comments = "\n".join(l for l in lines if l.startswith("#"))
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    return comments, rows


def _compare_csv(rep, a: Path, b: Path, where):
    file = a.name
    comments_a, rows_a = _read_csv(a)
    comments_b, rows_b = _read_csv(b)
    _compare_text(rep, file, comments_a, comments_b, where + " comments")
    if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        rep.violate(where, "header or row count differs")
        return
    header, body_a, body_b = rows_a[0], rows_a[1:], rows_b[1:]
    if any(len(r) != len(header) for r in body_a + body_b):
        rep.violate(where, "ragged rows")
        return
    eps_critical = ([r[header.index("regime")] == "eps-critical" for r in body_a]
                    if "regime" in header else [False] * len(body_a))
    for j, column in enumerate(header):
        if column in SKIPPED:
            continue
        a_vals, b_vals = [], []
        for i, (ra, rb) in enumerate(zip(body_a, body_b)):
            if column == "curl_fraction" and eps_critical[i]:
                continue
            s, t = ra[j], rb[j]
            if _is_float(s) and _is_float(t):
                a_vals.append(s)
                b_vals.append(t)
            elif s != t:
                rep.violate(f"{where} row {i + 1}", f"{column}: {s!r} != {t!r}")
        _compare_values(rep, file, column, a_vals, b_vals, where,
                        normwise=file in NORMWISE, difference=column in DIFFERENCES)


def _compare_vtk(rep, a: Path, b: Path, where):
    """Keyword lines and geometry exactly; each component of each SCALARS or
    VECTORS array normwise."""
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    if len(la) != len(lb):
        rep.violate(where, "line count differs")
        return
    arrays = {}                 # (name, component) -> (cells of a, cells of b)
    name = None
    for i, (s, t) in enumerate(zip(la, lb)):
        ws, wt = s.split(), t.split()
        numeric = bool(ws) and all(_is_int(w) or _is_float(w) for w in ws)
        if numeric and name is not None and len(ws) == len(wt):
            for k, (u, v) in enumerate(zip(ws, wt)):
                cells = arrays.setdefault((name, k), ([], []))
                cells[0].append(u)
                cells[1].append(v)
            continue
        if s != t:
            rep.violate(f"{where} line {i + 1}", f"{s[:60]!r} != {t[:60]!r}")
        if not numeric and ws and ws[0] != "LOOKUP_TABLE":
            name = ws[1] if ws[0] in VTK_ARRAYS else None
    for (name, k), (u, v) in arrays.items():
        _compare_values(rep, a.name, f"{name}[{k}]", u, v, where, normwise=True)


def compare(tree_a: Path, tree_b: Path) -> Report:
    rep = Report()
    files_a = {p.relative_to(tree_a) for p in tree_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(tree_b) for p in tree_b.rglob("*") if p.is_file()}
    rep.files = len(files_a | files_b)
    for rel in sorted(files_a ^ files_b):
        rep.violate(str(rel), f"only in {tree_a if rel in files_a else tree_b}")
    for rel in sorted(files_a & files_b):
        a, b, where = tree_a / rel, tree_b / rel, str(rel.parent)
        same = a.read_bytes() == b.read_bytes()
        rep.identical += same
        if rel.suffix == ".csv":
            _compare_csv(rep, a, b, f"{where}/{rel.name}")
        elif rel.suffix == ".vtk":
            _compare_vtk(rep, a, b, f"{where}/{rel.name}")
        elif rel.name in ("stdout.txt", "stderr.txt"):
            _compare_text(rep, rel.name, a.read_text(), b.read_text(), where)
        elif not same:
            rep.violate(str(rel), "files differ" if rel.name != "exit.txt" else
                        f"exit code {a.read_text().strip()} != {b.read_text().strip()}")
    return rep


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print("usage: cli_compare.py OUT_A OUT_B (two cli_outputs.sh trees)",
              file=sys.stderr)
        return 2
    rep = compare(Path(args[0]), Path(args[1]))
    rep.show()
    return 1 if rep.violations else 0


if __name__ == "__main__":
    sys.exit(main())
