"""Config-driven numerical studies: source convergence, spectrum scans,
eigenvalue convergence, and the stability/reflection diagnostics.

Every runner takes an ExperimentConfig, fans the per-level (or per-
formulation) solves out to a thread pool, and assembles the output table
serially afterwards, so CSV bytes depend only on the config, not on the
number of cores or of BLAS threads.  Tables all carry (level, h_max, dofs,
...) rows; h_max halves exactly per level because refinement is red.

Every pooled study lists its per-level jobs finest level first
(longest-job-first list scheduling, Graham 1969).  A level has four times the
unknowns of the one below, so the finest level's solves set the wall time;
listed first, they start at once while the coarse levels fill in behind them.
Each job assembles only its own formulation row's blocks, inside its worker
thread, and holds them no longer than it needs them: a source job lets its
blocks go before it factors (solvers.solve_source), except the finest edge
job, whose blocks the error norms read.  Temporaries freed in a thread stay in
its glibc arena, where no factorization reuses them (SuperLU's factor arrays
are fresh mmaps), so every factorization first hands that memory back
(solvers._factorize).  Together with the blocks let go, this lowered the
peak RSS of the source_deep benchmark from 539-548 to 475-489 MB (median
543 to 481) and that of the spectral one from 175-188 to 160-176 MB (ten
alternating pairs each, two vCPUs).  Most of what is left of the source
study's peak is its two L4 factorizations, edge and scalar, which run at
once.

The pool overlaps SuperLU factorizations, but Python-level work in one job
holds the other job back.  Measured on two vCPUs: one L3 edge factorization
of the source study took 0.29-0.37 s alone; beside a 0.15-0.18 s pure-Python
loop in the other thread it finished at 0.47-0.57 s, about the sum of the
two.  So the per-triangle kernels the jobs run are kept short (fem module
docstring), and the source study's scalar jobs return the flux of their
potential (fem.potential_flux), which the cross-check after the pool reads.

Every pool job runs with one BLAS thread (_one_blas_thread).  Otherwise
each worker's SuperLU and ARPACK calls also start OpenBLAS's own threads, so
on two cores two workers ran four threads.  Measured on two cores, one
eigen-convergence study on the benchmark's spectral config burned 5.2-5.5 s
of CPU for 3.1-3.9 s of wall time without the pin, and 3.0-3.7 s of CPU for
2.6-3.3 s with it.  Two L3 factorizations of the section 5.2 pencil
(73,168 dofs) took 0.37-0.74 s in two workers without the pin, in some runs
as slow as in sequence, and 0.38-0.46 s with it.  In sequence nothing is
lost (0.57-0.82 s either way): SuperLU's supernodal kernels are level-2
BLAS and gain nothing from BLAS threads.  The pin also makes the bytes
independent of the core count.  A threaded reduction (ddot, LAPACK's
blocked eigh) splits its sums by the thread count, and without the pin the
last digits of the inf-sup, eigen-convergence, source and reflection tables
moved with it.  The error norms the source study takes after its pool run
under the same pin.

Both eigen studies go through _gated_eigenpairs: one solvers.solve_eigen
call per (level, formulation) job, the edge and the scalar pencil alike.
Every pair a study emits must meet the RESIDUAL_FILTER gate on its rational
residual; one that misses it raises SolverError naming the job, lam and the
residual, so no pair is ever dropped.

Error protocol for the source study: the finest level is the reference, and
coarser solutions are carried up to it by the exact nested prolongation
matrices before norms are taken.  Absolute numbers therefore depend on the
mesh family; the shapes (monotone decay, per-level ratios) are the
reproducible content.  The manufactured fixture is the exception: there the
exact field is known, the errors are true errors, and the first-order slope
is checkable.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy
import scipy.sparse.linalg as spla  # rebound by perfbench/tracing.py

from . import fem, materials as mats, meshgen, reflection as refl, solvers as sol
from .config import ConfigError, ExperimentConfig
from .mesh import Mesh, refine_red

__all__ = [
    "ResultTable", "mesh_ladder", "run_source_convergence", "run_spectrum",
    "run_eigen_convergence", "run_infsup_diagnostic",
    "run_reflection_diagnostic", "export_field", "manufactured_solution",
    "RESIDUAL_FILTER",
]

# the gate on every emitted eigenpair's rational residual: a pair above it
# raises; recorded in every eigen CSV's metadata (the benchmark tracer
# imports the name)
RESIDUAL_FILTER = 1e-8


def _fmt(x) -> str:
    # NumPy 2 reprs its scalars as "np.float64(x)"; float() keeps the value
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _lines(fmt: str, *columns) -> str:
    """FMT filled from one row of COLUMNS (equal-length arrays) per line, all
    lines joined.  The cells are the Python ints and floats of .tolist(), so
    "{}" prints a float as its repr, as _fmt does."""
    return "".join(map(fmt.format, *(np.asarray(c).tolist() for c in columns)))


def _row_lines(rows: Sequence[Sequence]) -> str:
    """One line per row of cells, each cell written by _fmt, all joined."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_csv(path, columns: Sequence[str], lines: str,
               metadata: Sequence[Tuple[str, str]] = ()) -> Path:
    """Write metadata lines "# key = value", the header and the data LINES,
    already joined (_lines, _row_lines).  No cell, header or data, holds a
    comma, a quote or a line break, so none needs CSV quoting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.writelines(f"# {key} = {val}\n" for key, val in metadata)
        f.write(",".join(columns) + "\n")
        f.write(lines)
    return path


@dataclass(frozen=True)
class ResultTable:
    """Ordered per-level rows; schema varies by experiment but always leads
    with (level, h_max, dofs)."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple, ...]
    metadata: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        for name in ("level", "h_max", "dofs"):
            if name not in self.columns:
                raise ValueError(f"result table is missing a {name!r} column")
        lev = [row[self.columns.index("level")] for row in self.rows]
        dof = [row[self.columns.index("dofs")] for row in self.rows]
        if any(b <= a for a, b in zip(lev, lev[1:])):
            raise ValueError(f"levels not strictly increasing: {lev}")
        if any(b <= a for a, b in zip(dof, dof[1:])):
            raise ValueError(f"dof counts not strictly increasing: {dof}")

    def column(self, name: str) -> list:
        return [row[self.columns.index(name)] for row in self.rows]

    def write_csv(self, path) -> Path:
        return _write_csv(path, self.columns, _row_lines(self.rows), self.metadata)


def mesh_ladder(cfg: ExperimentConfig) -> List[Mesh]:
    """Coarse mesh plus cfg.levels - 1 red refinements."""
    if cfg.domain == "square":
        coarse = meshgen.square_mesh(max(1, round(1 / cfg.h_coarse)))
    else:
        coarse = meshgen.build_r_conform_coarse(cfg.domain_spec(), cfg.h_coarse)
    meshes = [coarse]
    for _ in range(cfg.levels - 1):
        meshes.append(refine_red(meshes[-1]))
    return meshes


# (get, set) names of OpenBLAS's thread control, in lookup order
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_control(pkg) -> Optional[Tuple[Callable, Callable]]:
    """(get, set) thread control of the OpenBLAS that the wheel of pkg (numpy
    or scipy) bundles under <pkg>.libs/; None where there is none (a build
    against another BLAS)."""
    libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@functools.lru_cache(maxsize=None)
def _blas_controls() -> Tuple[Tuple[Callable, Callable], ...]:
    """The found thread controls of numpy's and scipy's OpenBLAS.  Looked up
    on the first pool call, not at import."""
    return tuple(c for c in map(_openblas_control, (np, scipy)) if c is not None)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one BLAS thread in every bundled OpenBLAS, then give
    each back the count it had (module docstring).  A no-op where none was
    found; outside it, OPENBLAS_NUM_THREADS still rules.  The count is
    process-wide: nesting is fine, but two studies run at once from two
    threads are not pinned reliably."""
    controls = _blas_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def _pool_map(task: Callable, items: Sequence) -> list:
    """Dispatch per-level/per-formulation work; results return in submission
    order.  Workers take the items in list order, so the largest jobs go
    first, and a job allocates its own large arrays in its worker thread.
    Every job, the lone job of a one-item list too, runs with one BLAS
    thread, so two workers really run on two cores (module docstring)."""
    with _one_blas_thread():
        if len(items) <= 1:
            return [task(it) for it in items]
        # the CPUs this process may run on, so that a CPU-restricted
        # container is not oversubscribed
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=min(len(items), cpus)) as ex:
            return list(ex.map(task, items))


def _base_metadata(cfg: ExperimentConfig) -> List[Tuple[str, str]]:
    return [("kind", cfg.kind), ("domain", cfg.domain),
            ("levels", str(cfg.levels))]


def manufactured_solution(lam: float):
    """Smooth fixture on the unit square for the edge space's perfectly
    conducting boundary.

    u = Curl(cos pi x1 cos pi x2) = pi (-cos pi x1 sin pi x2, sin pi x1 cos
    pi x2) has no tangential trace on the square's boundary, so the edge
    space, whose boundary dofs are zero, holds the exact field's boundary
    values exactly.  Its curl is 2 pi^2 cos pi x1 cos pi x2 and curl curl u
    = 2 pi^2 u, so the matching load for A(lam) is (2 pi^2 - lam) u.
    Returns (exact, exact_curl, load).
    """
    def exact(x):
        x = np.asarray(x, dtype=float)
        sx, cx = np.sin(np.pi * x[..., 0]), np.cos(np.pi * x[..., 0])
        sy, cy = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
        return np.pi * np.stack([-cx * sy, sx * cy], axis=-1)

    def exact_curl(x):
        x = np.asarray(x, dtype=float)
        return 2 * np.pi ** 2 * np.cos(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])

    scale = 2 * np.pi ** 2 - lam
    return exact, exact_curl, lambda x: scale * exact(x)


def run_source_convergence(cfg: ExperimentConfig) -> ResultTable:
    """Per level: relative H(curl)/L2 errors against the finest level, plus
    the cross-check against the scalar-potential field; the manufactured
    fixture reports true errors instead.  Both errors are quadratic forms in
    the finest blocks: the Gram, and M_+ + M_- (the midpoint rule of the
    mass blocks is exact for products of two edge functions)."""
    if cfg.kind != "source":
        raise ConfigError(f"source study asked to run a {cfg.kind!r} config")
    if cfg.levels < 3:
        raise ConfigError("source convergence needs >= 3 levels")
    if cfg.lam is None:
        raise ConfigError("source convergence needs lam")
    lam = float(cfg.lam)
    mat = cfg.material()
    meshes = mesh_ladder(cfg)
    meta = _base_metadata(cfg) + [("lam", repr(lam)),
                                  ("reference", "finest level" if cfg.fixture == "none"
                                   else "manufactured solution")]
    # finest level first: its jobs are the longest (module docstring)
    finest = cfg.levels - 1
    levels = range(finest, -1, -1)

    if cfg.fixture == "manufactured":
        exact, exact_curl, load = manufactured_solution(lam)

        def task(job):
            m = meshes[job[0]]
            s = sol.solve_source(m, fem.assemble_blocks(m), mat, lam, load)
            l2, x = fem.error_vs_exact(m, s.coeffs, exact, exact_curl)
            return (x, l2)

        jobs = [(i, fem.EDGE) for i in levels]
        errs = dict(zip(jobs, _pool_map(task, jobs)))
        rows = tuple((i, meshes[i].h_max, meshes[i].num_edges) + errs[i, fem.EDGE]
                     for i in range(cfg.levels))
        return ResultTable(("level", "h_max", "dofs", "x_err", "l2_err"),
                           rows, tuple(meta))

    def task(job):
        i, form = job
        # only the norms' finest edge blocks are kept; every other job's
        # blocks are freed before its factorization (solve_source)
        kept = fem.assemble_blocks(meshes[i]) if job == (finest, fem.EDGE) else None
        s = sol.solve_source(meshes[i], kept or fem.assemble_blocks(meshes[i], form),
                             mat, lam, cfg.source)
        if form is fem.EDGE:
            # drop the longdouble carry: prolongation and norms run in float64
            return s.coeffs.astype(float), kept
        return fem.potential_flux(meshes[i], mat, lam, s.coeffs)

    jobs = [(i, form) for i in levels for form in (fem.EDGE, fem.SCALAR)]
    solved = dict(zip(jobs, _pool_map(task, jobs)))
    uref, blocks_f = solved[finest, fem.EDGE]

    space_f = fem.EDGE.space(meshes[-1])
    gram = sol.xnorm_gram(blocks_f, space_f)
    mass = blocks_f.mass[0] + blocks_f.mass[1]

    def norm(G, d):
        return math.sqrt(max(float(d @ (G @ d)), 0.0))

    prolong = [fem.edge_prolongation(c, f) for c, f in zip(meshes, meshes[1:])]
    rows = []
    # pinned like the pool's jobs: a threaded ddot splits its sum by the
    # thread count (module docstring)
    with _one_blas_thread():
        ref_x = norm(gram, space_f.restrict_vec(uref))
        ref_l2 = norm(mass, uref)
        for i in range(cfg.levels):
            u = w = solved[i, fem.EDGE][0]
            for P in prolong[i:]:
                w = P @ w
            d = w - uref
            x_err = norm(gram, space_f.restrict_vec(d)) / ref_x
            l2_err = norm(mass, d) / ref_l2
            cross = fem.cross_error(meshes[i], u, solved[i, fem.SCALAR])
            rows.append((i, meshes[i].h_max, meshes[i].num_edges, x_err, l2_err,
                         cross))
    return ResultTable(("level", "h_max", "dofs", "x_err", "l2_err", "cross_err"),
                       tuple(rows), tuple(meta))


def _regime(windows: mats.CriticalWindows, lam: float) -> str:
    tags = []
    if windows.window_mu is not None:
        a, b = windows.window_mu
        if a <= lam <= b:
            tags.append("uncovered-regime")
    if windows.window_eps is not None:
        a, b = windows.window_eps
        if a <= lam <= b:
            tags.append("eps-critical")
    return "|".join(tags)


def _gated_eigenpairs(meshes: Sequence[Mesh], mat: mats.DrudeMaterial,
                      jobs: Sequence[Tuple[int, fem.Formulation]],
                      window: Tuple[float, float], shift: float,
                      count: int) -> Dict[Tuple[int, fem.Formulation], list]:
    """solve_eigen on each (level, formulation) job through the pool, by job;
    each job assembles its own row's blocks in its worker.  A pair whose
    rational residual misses RESIDUAL_FILTER raises."""
    def task(job):
        i, form = job
        pairs = sol.solve_eigen(meshes[i], fem.assemble_blocks(meshes[i], form),
                                mat, window=window, shift=shift, count=count)
        for q in pairs:
            if not q.residual <= RESIDUAL_FILTER:
                raise sol.SolverError(
                    f"level {i} {form.kind} eigenpair at lam={q.lam} has rational "
                    f"residual {q.residual:.3e} > {RESIDUAL_FILTER!r}")
        return pairs

    return dict(zip(jobs, _pool_map(task, jobs)))


def run_spectrum(cfg: ExperimentConfig):
    """Eigenvalues of both formulations on the finest level, annotated: up to
    24 per formulation, those nearest the shift.

    Returns (rows, csv_path).  The two formulations are two jobs of
    _gated_eigenpairs, so every row has passed the RESIDUAL_FILTER gate.
    Vector rows carry residual, classification and curl-energy fraction; each
    one outside the permittivity accumulation window is matched to its
    nearest scalar-formulation partner (inside it, eigenvalues accumulate and
    pairing is meaningless, so the match columns stay empty).
    """
    if cfg.kind != "spectrum":
        raise ConfigError(f"spectrum scan asked to run a {cfg.kind!r} config")
    if cfg.window is None:
        raise ConfigError("spectrum scan needs a window")
    window = (float(cfg.window[0]), float(cfg.window[1]))
    shift = float(cfg.shift) if cfg.shift is not None else 0.5 * sum(window)
    mat = cfg.material()
    windows = cfg.windows()
    meshes = mesh_ladder(cfg)
    level = cfg.levels - 1

    # A(lam) is definite for lam < 0: no spectrum
    forms = (fem.EDGE, fem.SCALAR) if window[1] > 0 else ()
    got = _gated_eigenpairs(meshes, mat, [(level, f) for f in forms],
                            window, shift, count=24)
    pairs = got.get((level, fem.EDGE), [])
    scalar = got.get((level, fem.SCALAR), [])
    svals = np.array([q.lam for q in scalar])

    rows = []
    for q in pairs:
        reg = _regime(windows, q.lam)
        match = match_rel = ""
        if "eps-critical" not in reg and len(svals):
            j = int(np.argmin(np.abs(svals - q.lam)))
            match = float(svals[j])
            match_rel = float(abs(svals[j] - q.lam) / abs(q.lam))
        rows.append((level, "vector", q.lam, q.residual, q.classification,
                     q.curl_fraction, reg, match, match_rel))
    for q in scalar:
        rows.append((level, "scalar", q.lam, q.residual, "", "",
                     _regime(windows, q.lam), "", ""))

    meta = _base_metadata(cfg) + [
        ("window", f"{window[0]},{window[1]}"), ("shift", repr(shift)),
        ("residual_filter", repr(RESIDUAL_FILTER)),
        ("eps_window", _win_str(windows.window_eps)),
        ("mu_window", _win_str(windows.window_mu)),
    ]
    columns = ("level", "formulation", "lam", "residual", "classification",
               "curl_fraction", "regime", "scalar_match", "scalar_match_rel")
    path = _write_csv(Path(cfg.out_dir) / "spectrum.csv", columns, _row_lines(rows),
                      meta)
    return rows, path


def _win_str(window) -> str:
    if window is None:
        return "none"
    return f"{float(window[0])!r},{float(window[1])!r}"


def _largest_below(pairs: Sequence[sol.EigenPair], threshold: float,
                   what: str) -> sol.EigenPair:
    below = [q for q in pairs if q.lam < threshold]
    if not below:
        raise sol.SolverError(
            f"target not found: no {what} eigenvalue below {threshold}")
    return max(below, key=lambda q: q.lam)


def run_eigen_convergence(cfg: ExperimentConfig) -> ResultTable:
    """Track the largest eigenvalue below the threshold across the ladder;
    errors are relative to the finest level and to the scalar-formulation
    value on the finest level.

    The per-level edge jobs share the pool, finest first.  The scalar
    reference runs as one job after it, so its factors are never held beside
    the finest edge job's: pooled with them on the benchmark's spectral
    config, with every factorization trimmed, it cut the study from 2.5-3.3 s
    to 1.9-2.2 s but raised its peak RSS from 174-184 to 196-205 MB, about
    12%.
    Every pair of either formulation must pass the RESIDUAL_FILTER gate
    (_gated_eigenpairs)."""
    if cfg.kind != "eigen-convergence":
        raise ConfigError(
            f"eigenvalue convergence asked to run a {cfg.kind!r} config")
    if cfg.window is None:
        raise ConfigError("eigenvalue convergence needs a window")
    window = (float(cfg.window[0]), float(cfg.window[1]))
    shift = float(cfg.shift) if cfg.shift is not None else 0.5 * sum(window)
    threshold = float(cfg.threshold)
    mat = cfg.material()
    meshes = mesh_ladder(cfg)
    finest = cfg.levels - 1

    edge = _gated_eigenpairs(meshes, mat,
                             [(i, fem.EDGE) for i in range(finest, -1, -1)],
                             window, shift, count=8)
    got = [_largest_below(edge[i, fem.EDGE], threshold, f"level-{i} vector")
           for i in range(cfg.levels)]
    scalar = _gated_eigenpairs(meshes, mat, [(finest, fem.SCALAR)],
                               window, shift, count=8)
    scalar_ref = _largest_below(scalar[finest, fem.SCALAR], threshold,
                                "scalar").lam
    ref = got[-1].lam

    rows = tuple(
        (i, meshes[i].h_max, meshes[i].num_edges, q.lam, q.residual,
         abs(q.lam - ref) / abs(ref), abs(q.lam - scalar_ref) / abs(scalar_ref))
        for i, q in enumerate(got))
    meta = _base_metadata(cfg) + [
        ("window", f"{window[0]},{window[1]}"), ("shift", repr(shift)),
        ("target", f"largest eigenvalue below {threshold!r}, lambda-sorted"),
        ("residual_filter", repr(RESIDUAL_FILTER)),
        ("scalar_reference", repr(float(scalar_ref))),
    ]
    return ResultTable(
        ("level", "h_max", "dofs", "lam", "residual",
         "err_vs_finest", "err_vs_scalar_finest"), rows, tuple(meta))


def run_infsup_diagnostic(cfg: ExperimentConfig) -> ResultTable:
    """beta_n(lam) across the ladder (smallest generalized singular value)."""
    if cfg.kind != "diagnostics":
        raise ConfigError(f"inf-sup diagnostic asked to run a {cfg.kind!r} config")
    if cfg.lam is None:
        raise ConfigError("inf-sup diagnostic needs lam")
    lam = float(cfg.lam)
    mat = cfg.material()
    meshes = mesh_ladder(cfg)

    def task(i):
        return sol.discrete_infsup(meshes[i], fem.assemble_blocks(meshes[i]),
                                   mat, lam)

    # finest level first, each job assembling its own blocks (module docstring)
    levels = range(cfg.levels - 1, -1, -1)
    betas = dict(zip(levels, _pool_map(task, levels)))
    rows = tuple((i, meshes[i].h_max, meshes[i].num_edges, lam, betas[i])
                 for i in range(cfg.levels))
    meta = _base_metadata(cfg) + [("lam", repr(lam)),
                                  ("negative_control", str(cfg.allow_critical).lower())]
    return ResultTable(("level", "h_max", "dofs", "lam", "beta_n"),
                       rows, tuple(meta))


def run_reflection_diagnostic(cfg: ExperimentConfig):
    """Measured reflection-operator norms per interface pattern.

    Returns (rows, csv_path): one row per (pattern, direction) with the
    finest-level sup, the closed-form angle-ratio value, and the relative
    drift over the last two levels (the stabilization check).
    """
    if cfg.kind != "diagnostics":
        raise ConfigError(
            f"reflection diagnostic asked to run a {cfg.kind!r} config")
    if cfg.domain != "reference":
        raise ConfigError("reflection diagnostic runs on the reference domain")
    dom = cfg.domain_spec()
    meshes = mesh_ladder(cfg)
    patterns = ([("corner", n) for n in range(len(dom.patterns))]
                + [("edge", n) for n in range(len(dom.edges))])
    jobs = [(pat, d) for pat in patterns for d in ("+", "-")]

    def task(job):
        pat, direction = job
        est = refl.estimate_norm(meshes, dom, pat, "vector", direction)
        sups = est.level_sups
        drift = (abs(sups[-1] - sups[-2]) / sups[-1]) if len(sups) > 1 else 0.0
        return (pat[0], pat[1], direction, est.measured_sup,
                est.measured_sup_squared, est.formula_value, drift)

    rows = _pool_map(task, jobs)
    meta = _base_metadata(cfg) + [("norm_kind", "vector")]
    columns = ("pattern", "index", "direction", "measured_sup",
               "measured_sup_squared", "formula_value", "drift_last_two")
    path = _write_csv(Path(cfg.out_dir) / "reflection.csv", columns,
                      _row_lines(rows), meta)
    return rows, path


def export_field(mesh: Mesh, coeffs: np.ndarray, lam: float, path,
                 format: str = "csv") -> Path:
    """Write per-triangle barycenter samples of the source solve at lam, the
    edge field with coefficients coeffs on every edge of mesh.

    csv: one row per triangle with barycenter, both components, and the
    elementwise curl.  vtk: legacy ASCII unstructured grid carrying the same
    data as cell data (vectors padded to 3D).
    """
    if format not in ("csv", "vtk"):
        raise ValueError(f"unknown export format {format!r}")
    vals, curls = fem.eval_cellwise(mesh, coeffs)
    bary = mesh.barycenters()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    T = mesh.num_triangles
    if format == "csv":
        rows = _lines("{},{},{},{},{},{}\n", np.arange(T), *bary.T, *vals.T, curls)
        return _write_csv(path, ("triangle", "x1", "x2", "u1", "u2", "curl"),
                          rows, [("description", "source solve"),
                                 ("lam", repr(float(lam)))])

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("source solve\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.num_vertices} double\n")
        f.write(_lines("{} {} 0.0\n", *mesh.vertices.T))
        f.write(f"CELLS {T} {4 * T}\n")
        f.write(_lines("3 {} {} {}\n", *mesh.triangles.T))
        f.write(f"CELL_TYPES {T}\n")
        f.write("5\n" * T)
        f.write(f"CELL_DATA {T}\n")
        f.write("VECTORS field double\n")
        f.write(_lines("{} {} 0.0\n", *vals.T))
        f.write("SCALARS curl double 1\nLOOKUP_TABLE default\n")
        f.write(_lines("{}\n", curls))
    return path
