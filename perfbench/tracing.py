"""Spans around signfem's layers, recorded from outside the package.

``Tracer.install()`` wraps every public (not underscored) function of the layer
modules and rebinds the wrapper on every signfem module attribute that held
the original, so names bound by ``from ... import`` (``experiments.refine_red``,
``cli.check_r_conformity``) are traced where their callers look them up.
scipy's ``splu``/``eigsh`` are traced as signfem calls them, through an
overlay on the ``spla`` name of ``solvers`` and ``experiments``, and
``solvers.eigh`` is rebound; scipy itself is left untouched, so the factorization
ARPACK builds inside ``eigsh(sigma=...)`` is not an ``splu`` span.

Spans and observed values (``events``) live in memory until the traced
study ends.  Each span carries its thread and its parent span;
``experiments._pool_map`` is wrapped so work it hands to pool threads keeps
the dispatching span as parent.  ``uninstall()`` restores every attribute.
``layer_metrics`` turns the spans and events of a pass into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LAYERS = ("meshgen", "mesh", "fem", "solvers", "reflection", "experiments", "cli")


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str          # "<layer>.<function>", or "scipy.<function>"
    layer: str
    thread: int
    start: float
    end: float


class _Overlay:
    """A module stand-in: the given attributes, everything else from base."""

    def __init__(self, base, **attrs):
        self._base = base
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.events: List[Tuple[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------------- record

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note(self, key: str, value) -> None:
        self.events.append((key, value))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """fn recording a span named ``<layer>.<function>`` per call."""
        layer, observe = name.split(".")[0], _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, layer,
                                       threading.get_ident(), t0, t1))
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def _carry_parent(self, pool_map: Callable) -> Callable:
        @functools.wraps(pool_map)
        def traced_pool_map(task, items):
            stack = self._stack()
            parent = stack[-1] if stack else None

            def carried(item):
                inner = self._stack()
                inner.append(parent)
                try:
                    return task(item)
                finally:
                    inner.pop()
            return pool_map(carried, items)
        return traced_pool_map

    # --------------------------------------------------------------- install

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> "Tracer":
        mods = {n: importlib.import_module(f"signfem.{n}") for n in LAYERS}
        holders = [m for n, m in sys.modules.items() if n.startswith("signfem.")]
        for layer in LAYERS:
            mod = mods[layer]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(fn, f"{layer}.{fname}")
                for holder in holders:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._set(holder, attr, wrapped)

        solvers, experiments = mods["solvers"], mods["experiments"]
        spla = solvers.spla
        overlay = _Overlay(spla, splu=self.wrap(spla.splu, "scipy.splu"),
                           eigsh=self.wrap(spla.eigsh, "scipy.eigsh"))
        self._set(solvers, "spla", overlay)
        self._set(experiments, "spla", overlay)
        self._set(solvers, "eigh", self.wrap(solvers.eigh, "scipy.eigh"))
        self._set(experiments, "_pool_map", self._carry_parent(experiments._pool_map))
        return self

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


# --------------------------------------------------------------- observers

def _observe_coarse(tr: Tracer, args, mesh) -> None:
    import numpy as np
    p = mesh.vertices[mesh.triangles]                       # (T, 3, 2)
    worst = 180.0
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cos = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        worst = min(worst, float(np.degrees(np.arccos(np.clip(cos, -1, 1))).min()))
    tr.note("meshgen.coarse_min_angle_deg", worst)
    tr.note("meshgen.coarse_h_max", float(mesh.h_max))


def _observe_solve_eigen(tr: Tracer, args, pairs) -> None:
    from signfem.experiments import RESIDUAL_FILTER
    tr.note("solvers.pairs_returned", len(pairs))
    tr.note("solvers.pairs_kept", sum(1 for q in pairs if q.residual <= RESIDUAL_FILTER))


_OBSERVERS = {
    "meshgen.build_r_conform_coarse": _observe_coarse,
    "mesh.check_r_conformity":
        lambda tr, a, rep: tr.note("mesh.conformity_mismatch_max",
                                   float(rep.max_vertex_mismatch)),
    "solvers.solve_source":
        lambda tr, a, s: tr.note("solvers.source_residual_max", float(s.residual)),
    "solvers.solve_eigen": _observe_solve_eigen,
    "solvers.count_eigen_window":
        lambda tr, a, vals: tr.note("solvers.window_count", len(vals)),
    "scipy.splu":
        lambda tr, a, lu: tr.note("solvers.lu_fill", (int(lu.nnz), int(a[0].nnz))),
    "scipy.eigh":
        lambda tr, a, r: tr.note("solvers.dense_eigh_n_max", int(a[0].shape[0])),
}


# ------------------------------------------------------------ span algebra

def _union(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _length(intervals) -> float:
    return sum(b - a for a, b in intervals)


def _minus(span: Tuple[float, float], holes: List[Tuple[float, float]]):
    """Parts of span not covered by the (merged, sorted) holes."""
    a, b = span
    out = []
    for h0, h1 in holes:
        if h1 <= a or h0 >= b:
            continue
        if h0 > a:
            out.append((a, h0))
        a = max(a, h1)
    if a < b:
        out.append((a, b))
    return out


def busy(spans: Iterable[Span]) -> float:
    """Wall time covered by the spans; overlap across threads counts once."""
    return _length(_union((s.start, s.end) for s in spans))


def self_time(spans: List[Span], layer: str) -> float:
    """Wall time in the layer's spans not covered by their child spans."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    parts = []
    for s in spans:
        if s.layer == layer:
            parts += _minus((s.start, s.end), _union(children.get(s.id, ())))
    return _length(_union(parts))


# metric -> span names whose busy time it sums
FUNCTION_GROUPS = {
    "meshgen.build_coarse_s": ("meshgen.build_r_conform_coarse",),
    "mesh.refine_red_s": ("mesh.refine_red",),
    "mesh.check_conformity_s": ("mesh.check_r_conformity",),
    "fem.assemble_blocks_s": ("fem.assemble_blocks",),
    "fem.assemble_A_s": ("fem.assemble_A",),
    "fem.assemble_scalar_s": ("fem.assemble_scalar_problem",),
    "fem.prolong_edge_s": ("fem.prolong_edge",),
    "fem.field_eval_s": ("fem.field_norms", "fem.scalar_norms", "fem.cross_error",
                         "fem.error_vs_exact", "fem.eval_cellwise"),
    "solvers.solve_source_s": ("solvers.solve_source",),
    "solvers.solve_scalar_s": ("solvers.solve_scalar_potential",),
    "solvers.lu_s": ("scipy.splu",),
    "solvers.build_pencil_s": ("solvers.build_pencil", "solvers.build_scalar_pencil"),
    "solvers.eigsh_s": ("scipy.eigsh",),
    "solvers.dense_eigh_s": ("scipy.eigh",),
    "solvers.count_window_s": ("solvers.count_eigen_window",),
    "solvers.infsup_s": ("solvers.discrete_infsup",),
    "reflection.estimate_norm_s": ("reflection.estimate_norm",),
    "experiments.mesh_ladder_s": ("experiments.mesh_ladder",),
    "experiments.export_field_s": ("experiments.export_field",),
}
# metric -> span name whose single longest call it reports
LONGEST_CALL = {
    "mesh.refine_red_max_s": "mesh.refine_red",
    "solvers.lu_max_s": "scipy.splu",
}
# metric -> span name whose calls it counts
CALLS = {
    "meshgen.build_coarse_calls": "meshgen.build_r_conform_coarse",
    "fem.assemble_A_calls": "fem.assemble_A",
    "solvers.lu_calls": "scipy.splu",
    "solvers.eigsh_calls": "scipy.eigsh",
}
SELF_TIMES = {"solvers.self_s": "solvers", "experiments.self_s": "experiments",
              "cli.self_s": "cli"}
# how the noted values of one key combine; 0 when nothing was noted
COMBINE = {
    "meshgen.coarse_min_angle_deg": min, "meshgen.coarse_h_max": max,
    "mesh.conformity_mismatch_max": max, "solvers.source_residual_max": max,
    "solvers.dense_eigh_n_max": max, "solvers.pairs_returned": sum,
    "solvers.window_count": sum,
}


def merge(parts: Iterable[Tuple[List[Span], list]]) -> Tuple[List[Span], list]:
    """Join the spans and events of separately traced studies, renumbering
    span ids so they stay unique."""
    spans: List[Span] = []
    events: list = []
    offset = 0
    for part_spans, part_events in parts:
        top = 0
        for s in part_spans:
            spans.append(Span(s.id + offset, None if s.parent is None else s.parent + offset,
                              s.name, s.layer, s.thread, s.start, s.end))
            top = max(top, s.id)
        offset += top
        events += part_events
    return spans, events


def layer_metrics(spans: List[Span], events: list) -> Dict[str, float]:
    """Every per-layer value of one traced pass, by metric name."""
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    noted: Dict[str, list] = {}
    for key, value in events:
        noted.setdefault(key, []).append(value)
    out: Dict[str, float] = {}
    for metric, names in FUNCTION_GROUPS.items():
        out[metric] = busy(s for n in names for s in by_name.get(n, ()))
    for metric, name in LONGEST_CALL.items():
        out[metric] = max((s.end - s.start for s in by_name.get(name, ())), default=0.0)
    for metric, layer in SELF_TIMES.items():
        out[metric] = self_time(spans, layer)
    for metric, name in CALLS.items():
        out[metric] = float(len(by_name.get(name, ())))
    for key, combine in COMBINE.items():
        out[key] = float(combine(noted[key])) if key in noted else 0.0
    returned = out["solvers.pairs_returned"]
    out["solvers.pairs_kept_frac"] = (sum(noted.get("solvers.pairs_kept", ())) / returned
                                      if returned else 0.0)
    fill, nnz = max(noted.get("solvers.lu_fill", ()), default=(0, 1))
    out["solvers.lu_fill_nnz"] = float(fill)
    out["solvers.lu_fill_ratio"] = fill / max(nnz, 1)
    return out
