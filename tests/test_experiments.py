"""Study runners: job lists, pool scheduling and the tables they return."""

import dataclasses
import threading
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from signfem import experiments as exp, fem, solvers as sol
from signfem.config import ConfigError, ExperimentConfig

# section 5.1 material on the library-default reference domain, three levels
MAT_51 = dict(domain="reference", patch_radius=0.3, h_coarse=0.2,
              mu_minus=Fraction(1, 10), eps_minus=10, omega_mu_sq=2, omega_eps_sq=2)
SOURCE_51 = ExperimentConfig(kind="source", lam=1, levels=3, source=(1.0, 1.0),
                             **MAT_51)
MANUFACTURED = ExperimentConfig(kind="source", lam=1, levels=3, domain="square",
                                h_coarse=0.25, fixture="manufactured")
# section 5.2 material, two levels, around the isolated eigenvalue below 4/3
MAT_52 = dict(domain="reference", patch_radius=0.3, h_coarse=0.2, mu_minus=10,
              eps_minus=10, omega_mu_sq=4, omega_eps_sq=2)
CONVERGE_52 = ExperimentConfig(kind="eigen-convergence", window=(1.2, Fraction(4, 3)),
                               shift=1.27, levels=2, **MAT_52)
SPECTRUM_52 = ExperimentConfig(kind="spectrum", window=(1.2, Fraction(4, 3)),
                               shift=1.27, levels=2, **MAT_52)


def _sequential(task, items):
    # one BLAS thread, as in the pool, so the tables can match bit for bit
    with exp._one_blas_thread():
        return [task(it) for it in items]


@pytest.mark.parametrize("cfg", [SOURCE_51, MANUFACTURED],
                         ids=["reference", "manufactured"])
def test_source_table_same_pooled_and_sequential(cfg, monkeypatch):
    pooled = exp.run_source_convergence(cfg)
    monkeypatch.setattr(exp, "_pool_map", _sequential)
    assert exp.run_source_convergence(cfg) == pooled


@pytest.mark.parametrize("cfg, forms", [(SOURCE_51, (fem.EDGE, fem.SCALAR)),
                                        (MANUFACTURED, (fem.EDGE,))],
                         ids=["reference", "manufactured"])
def test_source_jobs_finest_level_first(cfg, forms, monkeypatch):
    calls = []

    def recording(task, items):
        calls.append(list(items))
        return _sequential(task, items)

    monkeypatch.setattr(exp, "_pool_map", recording)
    exp.run_source_convergence(cfg)
    # the solves are the first pool call; the reference study's post-solve
    # work (the norms' matrices beside the carried solutions) is a second one
    assert len(calls) == (2 if cfg.fixture == "none" else 1)
    jobs = calls[0]
    finest = cfg.levels - 1
    assert jobs[:len(forms)] == [(finest, f) for f in forms]
    assert len(jobs) == cfg.levels * len(forms)
    assert set(jobs) == {(i, f) for i in range(cfg.levels) for f in forms}


def test_per_level_table_refuses_dofs_that_do_not_increase():
    # the leading columns come from the ladder, whose levels refine
    meshes = exp.mesh_ladder(dataclasses.replace(MANUFACTURED, levels=2))
    values = [(0.5,), (0.25,)]
    table = exp.ResultTable.per_level(meshes, ("x_err",), values, ())
    assert table.columns == ("level", "h_max", "dofs", "x_err")
    assert table.column("level") == [0, 1]
    assert table.column("dofs") == [m.num_edges for m in meshes]
    for ladder in (meshes[::-1], [meshes[0]] * 2):
        with pytest.raises(ValueError, match="dof counts not strictly increasing"):
            exp.ResultTable.per_level(ladder, ("x_err",), values, ())


def _recording(calls):
    def pool_map(task, items):
        calls.append(list(items))
        return _sequential(task, items)
    return pool_map


def test_manufactured_fixture_converges_at_first_order():
    # true errors against the exact field: each halving of h halves both
    # the H(curl) and the L2 error of lowest-order edge elements
    table = exp.run_source_convergence(dataclasses.replace(MANUFACTURED, levels=4))
    for name in ("x_err", "l2_err"):
        errs = table.column(name)
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert len(ratios) == 3
        assert all(1.8 <= r <= 2.2 for r in ratios), (name, ratios)


def test_manufactured_field_has_no_tangential_trace():
    # the exact field lives in the perfectly conducting edge space: its
    # tangential moments vanish on every boundary edge of the square
    exact, _, _ = exp.manufactured_solution(1.0)
    m = exp.mesh_ladder(dataclasses.replace(MANUFACTURED, levels=2))[-1]
    moments = fem.interpolate_edge(m, exact)
    assert np.abs(moments[m.boundary_edge]).max() <= 1e-12
    assert np.abs(moments[~m.boundary_edge]).max() > 1e-2


def test_eigen_convergence_scalar_reference_after_the_pool(monkeypatch):
    # the per-level edge jobs share one pool, finest first; the scalar
    # reference is one job of its own afterwards, and the table is the pooled one
    pooled = exp.run_eigen_convergence(CONVERGE_52)
    calls = []
    monkeypatch.setattr(exp, "_pool_map", _recording(calls))
    assert exp.run_eigen_convergence(CONVERGE_52) == pooled
    assert calls == [[(1, fem.EDGE), (0, fem.EDGE)], [(1, fem.SCALAR)]]


def test_infsup_jobs_finest_level_first(monkeypatch):
    cfg = ExperimentConfig(kind="diagnostics", lam=1, levels=3, **MAT_51)
    pooled = exp.run_infsup_diagnostic(cfg)
    calls = []
    monkeypatch.setattr(exp, "_pool_map", _recording(calls))
    assert exp.run_infsup_diagnostic(cfg) == pooled
    assert calls == [[(2, fem.EDGE), (1, fem.EDGE), (0, fem.EDGE)]]


def test_spectrum_runs_both_formulations_as_jobs(tmp_path, monkeypatch):
    cfg = dataclasses.replace(SPECTRUM_52, out_dir=str(tmp_path))
    calls = []
    monkeypatch.setattr(exp, "_pool_map", _recording(calls))
    rows, path = exp.run_spectrum(cfg)
    assert calls == [[(1, fem.EDGE), (1, fem.SCALAR)]]
    kinds = [row[1] for row in rows]
    assert "vector" in kinds and "scalar" in kinds
    text = path.read_text()
    assert "dropped_by_filter" not in text
    # the gate solve_eigen holds every pair to, one object under both names
    assert exp.RESIDUAL_FILTER is sol.RESIDUAL_FILTER
    assert f"# residual_filter = {sol.RESIDUAL_FILTER!r}\n" in text


def test_reflection_diagnostic_returns_its_table(tmp_path):
    # the verb table names and writes reflection.csv; the runner writes nothing
    cfg = ExperimentConfig(kind="diagnostics", levels=2, out_dir=str(tmp_path), **MAT_51)
    table = exp.run_reflection_diagnostic(cfg)
    assert isinstance(table, exp.ResultTable) and len(table.rows) == 12
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError, match="needs >= 2 levels"):
        exp.run_reflection_diagnostic(dataclasses.replace(cfg, levels=1))


@pytest.mark.parametrize("run, cfg, what", [
    (exp.run_spectrum, SPECTRUM_52, "spectrum scan"),
    (exp.run_eigen_convergence, CONVERGE_52, "eigenvalue convergence"),
], ids=["spectrum", "convergence"])
def test_eigen_studies_refuse_the_wrong_config(run, cfg, what):
    # the shared preamble names each study in its errors
    with pytest.raises(ConfigError, match=f"^{what} asked to run a 'source' config$"):
        run(SOURCE_51)
    with pytest.raises(ConfigError, match=f"^{what} needs a window$"):
        run(dataclasses.replace(cfg, window=None, shift=None))


def _counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def two_blas_threads():
    # every bundled OpenBLAS set to two threads, and set back afterwards
    controls = exp._blas_controls()
    saved = _counts(controls)
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), n in zip(controls, saved):
        put(n)


def test_pool_jobs_run_with_one_blas_thread(two_blas_threads):
    controls = two_blas_threads
    assert len(controls) >= 2, "numpy's and scipy's OpenBLAS not found"
    before = _counts(controls)
    one = [1] * len(controls)
    assert exp._pool_map(lambda _: _counts(controls), [0, 1, 2]) == [one] * 3
    assert exp._pool_map(lambda _: _counts(controls), [0]) == [one]
    assert _counts(controls) == before

    def fail(_):
        raise sol.SolverError("factorization failed")

    with pytest.raises(sol.SolverError):
        exp._pool_map(fail, [0, 1])
    assert _counts(controls) == before


def test_pool_without_blas_controls_sets_nothing(two_blas_threads, monkeypatch):
    controls = two_blas_threads
    before = _counts(controls)
    monkeypatch.setattr(exp, "_blas_controls", lambda: ())
    assert exp._pool_map(lambda _: _counts(controls), [0, 1]) == [before] * 2
    assert _counts(controls) == before


def test_eigen_convergence_trims_before_every_factorization(monkeypatch):
    # two edge jobs and the scalar reference: in each worker thread every
    # splu follows its own malloc_trim(0)
    events = []
    real_splu = sol.spla.splu

    def splu(*args, **kwargs):
        events.append((threading.get_ident(), "splu"))
        return real_splu(*args, **kwargs)

    def trim(pad):
        events.append((threading.get_ident(), ("trim", pad)))

    monkeypatch.setattr(sol, "_malloc_trim", lambda: trim)
    monkeypatch.setattr(sol.spla, "splu", splu)
    exp.run_eigen_convergence(CONVERGE_52)
    assert len(events) >= 6
    for thread in {t for t, _ in events}:
        mine = [e for t, e in events if t == thread]
        assert mine == [("trim", 0), "splu"] * (len(mine) // 2)


def test_source_jobs_free_their_blocks_before_factoring(monkeypatch):
    # one worker runs the jobs in list order; no job holds its blocks under
    # its factor, and the norms' finest edge blocks, assembled once more after
    # the solves, are never alive under one either
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    made, factored = [], []
    real_assemble, real_splu = fem.assemble_blocks, sol.spla.splu

    def assemble(mesh, form=fem.EDGE):
        blocks = real_assemble(mesh, form)
        made.append(weakref.ref(blocks))
        return blocks

    def splu(*args, **kwargs):
        factored.append([i for i, ref in enumerate(made) if ref() is not None])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble_blocks", assemble)
    monkeypatch.setattr(sol.spla, "splu", splu)
    exp.run_source_convergence(SOURCE_51)
    assert len(made) == 2 * SOURCE_51.levels + 1
    assert factored == [[]] * (2 * SOURCE_51.levels)


def test_pool_size_follows_the_cpu_affinity(monkeypatch):
    # a process allowed one CPU gets one worker, whatever the machine has
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def job(_):
        time.sleep(0.05)
        return threading.get_ident()

    assert len(set(exp._pool_map(job, range(4)))) == 1


def _export_field_rows(mesh, coeffs, lam, path, format):
    """export_field as loops that format one vertex or triangle at a time."""
    vals, curls = fem.eval_cellwise(mesh, coeffs)
    bary = mesh.barycenters()

    def fmt(x):
        return repr(float(x))

    if format == "csv":
        with open(path, "w") as f:
            f.write("# description = source solve\n")
            f.write(f"# lam = {float(lam)!r}\n")
            f.write("triangle,x1,x2,u1,u2,curl\n")
            for t in range(mesh.num_triangles):
                cells = (bary[t, 0], bary[t, 1], vals[t, 0], vals[t, 1], curls[t])
                f.write(",".join([str(t), *map(fmt, cells)]) + "\n")
        return
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("source solve\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            f.write(f"{fmt(x)} {fmt(y)} 0.0\n")
        T = mesh.num_triangles
        f.write(f"CELLS {T} {4 * T}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {T}\n")
        f.writelines("5\n" * T)
        f.write(f"CELL_DATA {T}\n")
        f.write("VECTORS field double\n")
        for t in range(T):
            f.write(f"{fmt(vals[t, 0])} {fmt(vals[t, 1])} 0.0\n")
        f.write("SCALARS curl double 1\nLOOKUP_TABLE default\n")
        for t in range(T):
            f.write(f"{fmt(curls[t])}\n")


@pytest.mark.parametrize("format", ["csv", "vtk"])
def test_export_field_matches_row_writer(format, tmp_path):
    # random coefficients on L1 and L2: the same bytes as the per-row loops
    meshes = exp.mesh_ladder(dataclasses.replace(SOURCE_51, levels=3))
    rng = np.random.default_rng(7)
    for m, lam in ((meshes[1], 1), (meshes[2], 4 / 3)):
        coeffs = rng.standard_normal(m.num_edges)
        coeffs[::5] = 0.0
        exp.export_field(m, coeffs, lam, tmp_path / "joined", format)
        _export_field_rows(m, coeffs, lam, tmp_path / "rows", format)
        assert (tmp_path / "joined").read_bytes() == (tmp_path / "rows").read_bytes()
