"""Study runners: job lists, pool scheduling and the tables they return."""

import dataclasses
import threading
import time
from fractions import Fraction

import pytest

from signfem import experiments as exp, fem, solvers as sol
from signfem.config import ExperimentConfig

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


@pytest.mark.parametrize("cfg, kinds", [(SOURCE_51, ("edge", "scalar")),
                                        (MANUFACTURED, ("edge",))],
                         ids=["reference", "manufactured"])
def test_source_jobs_finest_level_first(cfg, kinds, monkeypatch):
    calls = []

    def recording(task, items):
        calls.append(list(items))
        return _sequential(task, items)

    monkeypatch.setattr(exp, "_pool_map", recording)
    exp.run_source_convergence(cfg)
    assert len(calls) == 1
    jobs = calls[0]
    finest = cfg.levels - 1
    assert jobs[:len(kinds)] == [(finest, k) for k in kinds]
    assert sorted(jobs) == sorted((i, k) for i in range(cfg.levels) for k in kinds)


def _recording(calls):
    def pool_map(task, items):
        calls.append(list(items))
        return _sequential(task, items)
    return pool_map


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
    assert calls == [[2, 1, 0]]


def test_spectrum_runs_both_formulations_as_jobs(tmp_path, monkeypatch):
    cfg = dataclasses.replace(SPECTRUM_52, out_dir=str(tmp_path))
    calls = []
    monkeypatch.setattr(exp, "_pool_map", _recording(calls))
    rows, path = exp.run_spectrum(cfg)
    assert calls == [[(1, fem.EDGE), (1, fem.SCALAR)]]
    kinds = [row[1] for row in rows]
    assert "vector" in kinds and "scalar" in kinds
    assert "dropped_by_filter" not in path.read_text()


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


def test_pool_size_follows_the_cpu_affinity(monkeypatch):
    # a process allowed one CPU gets one worker, whatever the machine has
    monkeypatch.setattr(exp.os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def job(_):
        time.sleep(0.05)
        return threading.get_ident()

    assert len(set(exp._pool_map(job, range(4)))) == 1
