"""Config-driven numerical studies: source convergence, spectrum scans,
eigenvalue convergence, and the stability/reflection diagnostics.

Every runner takes an ExperimentConfig, opens with one preamble (_study:
kind and needed fields checked, ladder built), fans its (level,
formulation) jobs out to a thread pool through one job map (_level_jobs),
and builds its table serially afterwards, so CSV bytes depend only on the
config, not on the number of cores or of BLAS threads.  Every CSV is a
ResultTable, written by its write_csv; a per-level table leads with (level,
h_max, dofs) from the ladder, and h_max halves per level (red refinement).

_level_jobs lists the jobs finest level first (longest-job-first list
scheduling, Graham 1969).  A level has four times the
unknowns of the one below, so the finest level's solves set the wall time;
listed first, they start at once while the coarse levels fill in behind them.
Each job assembles only its own formulation row's blocks, inside its worker
thread, and holds them no longer than it needs them: every source job lets
its blocks go before it factors (solvers.solve_source).  The error norms
read the Gram and the mass of the finest edge blocks, so the source study
assembles those once more after its solves, when no factor is held, in a
second pool call beside the prolongations and cross-checks.  Temporaries
freed in a thread stay in its glibc arena, where no factorization reuses
them (SuperLU's factor arrays are fresh mmaps), so every factorization first
hands that memory back (solvers._factorize).  Together with the blocks let
go, this lowered the peak RSS of the source_deep benchmark from 539-548 to
475-489 MB (median 543 to 481) and that of the spectral one from 175-188 to
160-176 MB (ten alternating pairs each, two vCPUs).  Most of what is left of
the source study's peak is its two L4 factorizations, edge and scalar, which
run at once.  With one-column SuperLU panels (solvers module docstring) they
no longer hold panel workspace beside their factors, and the source_deep
peak fell from 475-484 to 374-411 MB (median 478 to 387, ten alternating
pairs).  Then every large array of the source study was made to live once:
no finest edge blocks under the L4 factors, one copy of A(lam) under each
factor (solvers module docstring) and block assembly region by region (fem
module docstring).  That lowered the source_deep peak from 376-397 to
314-360 MB (median 385 to 330, ten alternating pairs, lower in all ten).

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

Both eigen studies go through _eigenpairs: one solvers.solve_eigen call
per (level, formulation) job, the edge and the scalar pencil alike.  The
gate on every pair's rational residual, solvers.RESIDUAL_FILTER, is
solve_eigen's own: a pair that misses it raises SolverError naming the row,
lam, the residual and the free-dof count, so no pair is ever dropped.  The
eigen CSVs record the gate in their metadata.

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
    "ResultTable", "coarse_mesh", "mesh_ladder", "run_source_convergence",
    "run_spectrum", "run_eigen_convergence", "run_infsup_diagnostic",
    "run_reflection_diagnostic", "export_field", "manufactured_solution",
    "window_str", "RESIDUAL_FILTER",
]

# solve_eigen's gate, recorded in every eigen CSV's metadata (the benchmark
# tracer imports the name from here)
RESIDUAL_FILTER = sol.RESIDUAL_FILTER


def _lines(fmt: str, *columns) -> str:
    """FMT filled from one row of COLUMNS (equal-length arrays) per line, all
    lines joined, for the arrays of field.vtk.  The cells are the Python ints
    and floats of .tolist(), so "{}" prints a float as its repr."""
    return "".join(map(fmt.format, *(np.asarray(c).tolist() for c in columns)))


@dataclass(frozen=True)
class ResultTable:
    """Every CSV the program writes: columns, rows and "# key = value"
    metadata, written by write_csv.  A cell is a label, an int or a Python
    or NumPy float64, which str prints as its repr (a longdouble would print
    more digits).  per_level and per_triangle take the leading columns from
    the mesh."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple, ...]
    metadata: Tuple[Tuple[str, str], ...]

    @classmethod
    def per_level(cls, meshes: Sequence[Mesh], columns: Sequence[str],
                  values: Sequence[Sequence], metadata) -> "ResultTable":
        """One row per mesh of the ladder MESHES: (level, h_max, dofs), then
        that level's VALUES under COLUMNS.  dofs (edges) must increase."""
        dofs = [m.num_edges for m in meshes]
        if any(b <= a for a, b in zip(dofs, dofs[1:])):
            raise ValueError(f"dof counts not strictly increasing: {dofs}")
        rows = tuple((i, m.h_max, n, *v) for i, (m, n, v)
                     in enumerate(zip(meshes, dofs, values, strict=True)))
        return cls(("level", "h_max", "dofs", *columns), rows, tuple(metadata))

    @classmethod
    def per_triangle(cls, mesh: Mesh, columns: Sequence[str],
                     values: Sequence[np.ndarray], metadata) -> "ResultTable":
        """One row per triangle of MESH: its index and barycenter (triangle,
        x1, x2), then the arrays VALUES under COLUMNS, rounded to float64."""
        cells = [np.asarray(c, dtype=float).tolist()
                 for c in (*mesh.barycenters().T, *values)]
        return cls(("triangle", "x1", "x2", *columns),
                   tuple(zip(range(mesh.num_triangles), *cells)), tuple(metadata))

    def column(self, name: str) -> list:
        return [row[self.columns.index(name)] for row in self.rows]

    def write_csv(self, path) -> Path:
        """Metadata lines, header, one line per row.  No cell holds a comma,
        a quote or a line break, so none needs CSV quoting."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            f.writelines(f"# {key} = {val}\n" for key, val in self.metadata)
            f.write(",".join(self.columns) + "\n")
            f.writelines(",".join(map(str, row)) + "\n" for row in self.rows)
        return path


def coarse_mesh(cfg: ExperimentConfig) -> Mesh:
    """Level 0 of the config's ladder."""
    if cfg.domain == "square":
        return meshgen.square_mesh(max(1, round(1 / cfg.h_coarse)))
    return meshgen.build_r_conform_coarse(cfg.domain_spec(), cfg.h_coarse)


def mesh_ladder(cfg: ExperimentConfig) -> List[Mesh]:
    """Coarse mesh plus cfg.levels - 1 red refinements."""
    meshes = [coarse_mesh(cfg)]
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


def _study(cfg: ExperimentConfig, kind: str, what: str, **needs: str):
    """Every study's preamble: cfg must be a KIND config with each field of
    NEEDS set; errors name the study WHAT and the field by its NEEDS phrase
    ("needs a window").  Returns the material and the mesh ladder."""
    if cfg.kind != kind:
        raise ConfigError(f"{what} asked to run a {cfg.kind!r} config")
    for field, phrase in needs.items():
        if getattr(cfg, field) is None:
            raise ConfigError(f"{what} needs {phrase}")
    return cfg.material(), mesh_ladder(cfg)


def _level_jobs(meshes: Sequence[Mesh], levels: Sequence[int],
                forms: Sequence[fem.Formulation], task: Callable) -> dict:
    """task(level, mesh, form) on every (level, form) job of LEVELS x FORMS
    through the pool, finest level first (module docstring); the results by
    job."""
    jobs = [(i, form) for i in sorted(levels, reverse=True) for form in forms]
    results = _pool_map(lambda job: task(job[0], meshes[job[0]], job[1]), jobs)
    return dict(zip(jobs, results))


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
    if cfg.levels < 3:
        raise ConfigError("source convergence needs >= 3 levels")
    mat, meshes = _study(cfg, "source", "source convergence", lam="lam")
    lam = float(cfg.lam)
    meta = _base_metadata(cfg) + [("lam", repr(lam)),
                                  ("reference", "finest level" if cfg.fixture == "none"
                                   else "manufactured solution")]
    finest = cfg.levels - 1

    if cfg.fixture == "manufactured":
        exact, exact_curl, load = manufactured_solution(lam)

        def task(i, m, form):
            s = sol.solve_source(m, fem.assemble_blocks(m, form), mat, lam, load)
            l2, x = fem.error_vs_exact(m, s.coeffs, exact, exact_curl)
            return (x, l2)

        errs = _level_jobs(meshes, range(cfg.levels), (fem.EDGE,), task)
        return ResultTable.per_level(meshes, ("x_err", "l2_err"),
                                     [errs[i, fem.EDGE] for i in range(cfg.levels)],
                                     meta)

    def task(i, m, form):
        # the blocks are freed before the factorization (solve_source)
        s = sol.solve_source(m, fem.assemble_blocks(m, form), mat, lam, cfg.source)
        if form is fem.EDGE:
            return s.coeffs
        return fem.potential_flux(m, mat, lam, s.coeffs)

    solved = _level_jobs(meshes, range(cfg.levels), (fem.EDGE, fem.SCALAR), task)
    uref = solved[finest, fem.EDGE]
    space_f = fem.EDGE.space(meshes[-1])

    # after the solves, with no factor held: the norms' Gram and mass from
    # finest edge blocks assembled anew, beside every coarser solution carried
    # up to the finest level and the cross-checks (module docstring)
    def norm_matrices():
        blocks = fem.assemble_blocks(meshes[-1])
        return sol.xnorm_gram(blocks, space_f), blocks.mass[0] + blocks.mass[1]

    def carried_and_cross():
        prolong = [fem.edge_prolongation(c, f) for c, f in zip(meshes, meshes[1:])]
        carried = []
        for i in range(cfg.levels):
            w = solved[i, fem.EDGE]
            for P in prolong[i:]:
                w = P @ w
            carried.append(w)
        return carried, [fem.cross_error(meshes[i], solved[i, fem.EDGE],
                                         solved[i, fem.SCALAR])
                         for i in range(cfg.levels)]

    (gram, mass), (carried, cross) = _pool_map(lambda work: work(),
                                               [norm_matrices, carried_and_cross])

    def norm(G, d):
        return math.sqrt(max(float(d @ (G @ d)), 0.0))

    errs = []
    # pinned like the pool's jobs: a threaded ddot splits its sum by the
    # thread count (module docstring)
    with _one_blas_thread():
        ref_x = norm(gram, space_f.restrict_vec(uref))
        ref_l2 = norm(mass, uref)
        for i in range(cfg.levels):
            d = carried[i] - uref
            errs.append((norm(gram, space_f.restrict_vec(d)) / ref_x,
                         norm(mass, d) / ref_l2, cross[i]))
    return ResultTable.per_level(meshes, ("x_err", "l2_err", "cross_err"), errs, meta)


def _eigenpairs(meshes: Sequence[Mesh], mat: mats.DrudeMaterial,
                levels: Sequence[int], forms: Sequence[fem.Formulation],
                window: Tuple[float, float], shift: float,
                count: int) -> Dict[Tuple[int, fem.Formulation], list]:
    """solve_eigen on each (level, formulation) job of _level_jobs, by job;
    each job assembles its own row's blocks in its worker."""
    def task(i, m, form):
        return sol.solve_eigen(m, fem.assemble_blocks(m, form), mat,
                               window=window, shift=shift, count=count)

    return _level_jobs(meshes, levels, forms, task)


def _window_shift(cfg: ExperimentConfig) -> Tuple[Tuple[float, float], float]:
    """An eigen study's window in floats, and cfg.shift or its midpoint."""
    window = (float(cfg.window[0]), float(cfg.window[1]))
    return window, float(cfg.shift) if cfg.shift is not None else 0.5 * sum(window)


def run_spectrum(cfg: ExperimentConfig):
    """Eigenvalues of both formulations on the finest level, annotated: up to
    24 per formulation, those nearest the shift.

    Returns (rows, csv_path).  The two formulations are two jobs of
    _eigenpairs, so every row has passed solve_eigen's RESIDUAL_FILTER gate.
    Vector rows carry residual, classification and curl-energy fraction; each
    one outside the permittivity accumulation window is matched to its
    nearest scalar-formulation partner (inside it, eigenvalues accumulate and
    pairing is meaningless, so the match columns stay empty).
    """
    mat, meshes = _study(cfg, "spectrum", "spectrum scan", window="a window")
    window, shift = _window_shift(cfg)
    windows = cfg.windows()
    level = cfg.levels - 1

    # A(lam) is definite for lam < 0: no spectrum
    forms = (fem.EDGE, fem.SCALAR) if window[1] > 0 else ()
    got = _eigenpairs(meshes, mat, [level], forms, window, shift, count=24)
    pairs = got.get((level, fem.EDGE), [])
    scalar = got.get((level, fem.SCALAR), [])
    svals = np.array([q.lam for q in scalar])

    rows = []
    for q in pairs:
        reg = windows.regime(q.lam)
        match = match_rel = ""
        if "eps-critical" not in reg and len(svals):
            j = int(np.argmin(np.abs(svals - q.lam)))
            match = float(svals[j])
            match_rel = float(abs(svals[j] - q.lam) / abs(q.lam))
        rows.append((level, "vector", q.lam, q.residual, q.classification,
                     q.curl_fraction, reg, match, match_rel))
    for q in scalar:
        rows.append((level, "scalar", q.lam, q.residual, "", "",
                     windows.regime(q.lam), "", ""))

    meta = _base_metadata(cfg) + [
        ("window", window_str(window)), ("shift", repr(shift)),
        ("residual_filter", repr(RESIDUAL_FILTER)),
        ("eps_window", window_str(windows.window_eps)),
        ("mu_window", window_str(windows.window_mu)),
    ]
    columns = ("level", "formulation", "lam", "residual", "classification",
               "curl_fraction", "regime", "scalar_match", "scalar_match_rel")
    table = ResultTable(columns, tuple(rows), tuple(meta))
    return rows, table.write_csv(Path(cfg.out_dir) / "spectrum.csv")


def window_str(window) -> str:
    """A lambda window as "a,b" of float reprs, or "none"."""
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
    12%.  Measured again with one-column panels (four alternating pairs of
    the spectral workload against the unpooled study): wall_s 2.32-2.75 s
    against 2.48-2.71 s, no clear gain, and peak RSS 202-205 MB against
    158-166 MB, about 28%, still over the benchmark's 10% bound.
    Every pair of either formulation has passed solve_eigen's
    RESIDUAL_FILTER gate."""
    mat, meshes = _study(cfg, "eigen-convergence", "eigenvalue convergence",
                         window="a window")
    window, shift = _window_shift(cfg)
    threshold = float(cfg.threshold)
    finest = cfg.levels - 1

    edge = _eigenpairs(meshes, mat, range(cfg.levels), (fem.EDGE,),
                       window, shift, count=8)
    got = [_largest_below(edge[i, fem.EDGE], threshold, f"level-{i} vector")
           for i in range(cfg.levels)]
    scalar = _eigenpairs(meshes, mat, [finest], (fem.SCALAR,),
                         window, shift, count=8)
    scalar_ref = _largest_below(scalar[finest, fem.SCALAR], threshold,
                                "scalar").lam
    ref = got[-1].lam

    values = [(q.lam, q.residual, abs(q.lam - ref) / abs(ref),
               abs(q.lam - scalar_ref) / abs(scalar_ref)) for q in got]
    meta = _base_metadata(cfg) + [
        ("window", window_str(window)), ("shift", repr(shift)),
        ("target", f"largest eigenvalue below {threshold!r}, lambda-sorted"),
        ("residual_filter", repr(RESIDUAL_FILTER)),
        ("scalar_reference", repr(float(scalar_ref))),
    ]
    return ResultTable.per_level(
        meshes, ("lam", "residual", "err_vs_finest", "err_vs_scalar_finest"),
        values, meta)


def run_infsup_diagnostic(cfg: ExperimentConfig) -> ResultTable:
    """beta_n(lam) across the ladder (smallest generalized singular value)."""
    mat, meshes = _study(cfg, "diagnostics", "inf-sup diagnostic", lam="lam")
    lam = float(cfg.lam)

    def task(i, m, form):
        return sol.discrete_infsup(m, fem.assemble_blocks(m, form), mat, lam)

    betas = _level_jobs(meshes, range(cfg.levels), (fem.EDGE,), task)
    meta = _base_metadata(cfg) + [("lam", repr(lam)),
                                  ("negative_control", str(cfg.allow_critical).lower())]
    return ResultTable.per_level(meshes, ("lam", "beta_n"),
                                 [(lam, betas[i, fem.EDGE]) for i in range(cfg.levels)],
                                 meta)


def run_reflection_diagnostic(cfg: ExperimentConfig) -> ResultTable:
    """Measured reflection-operator norms per interface pattern.

    One row per (pattern, direction) with the finest-level sup, the
    closed-form angle-ratio value, and the relative drift over the last two
    levels (the stabilization check), which takes at least two levels.
    """
    if cfg.domain != "reference":
        raise ConfigError("reflection diagnostic runs on the reference domain")
    if cfg.levels < 2:
        raise ConfigError("reflection diagnostic needs >= 2 levels")
    _, meshes = _study(cfg, "diagnostics", "reflection diagnostic")
    dom = cfg.domain_spec()
    patterns = ([("corner", n) for n in range(len(dom.patterns))]
                + [("edge", n) for n in range(len(dom.edges))])
    jobs = [(pat, d) for pat in patterns for d in ("+", "-")]

    def task(job):
        pat, direction = job
        est = refl.estimate_norm(meshes, dom, pat, "vector", direction)
        sups = est.level_sups
        return (pat[0], pat[1], direction, est.measured_sup,
                est.measured_sup_squared, est.formula_value,
                abs(sups[-1] - sups[-2]) / sups[-1])

    meta = _base_metadata(cfg) + [("norm_kind", "vector")]
    columns = ("pattern", "index", "direction", "measured_sup",
               "measured_sup_squared", "formula_value", "drift_last_two")
    return ResultTable(columns, tuple(_pool_map(task, jobs)), tuple(meta))


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
    if format == "csv":
        return ResultTable.per_triangle(
            mesh, ("u1", "u2", "curl"), (*vals.T, curls),
            [("description", "source solve"), ("lam", repr(float(lam)))]
        ).write_csv(path)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    T = mesh.num_triangles
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
