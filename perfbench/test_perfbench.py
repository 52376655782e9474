"""Self-test of the benchmark, on the reduced ladders of every workload.

    python3 -m pytest perfbench -q

It checks that every metric BENCHMARK.json names is emitted with its unit,
that tracing reaches names rebound by ``from ... import`` and restores them
afterwards, and that one corrupted reference value fails a study.
"""

import copy
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = run._spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    record = run.measure(workload, seed=3, seconds=0, trace=False, small=True)
    result = run.result_line(record)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(checks.load_reference()["small"][workload])
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_emitted():
    record = run.measure("source_deep", seed=3, seconds=0, trace=True, small=True)
    result = run.result_line(record)
    assert result["correct"]
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = record["layers"]
    # experiments calls refine_red under the name it imported
    assert layers["mesh.refine_red_s"] > 0
    assert layers["meshgen.build_coarse_calls"] == 1
    assert layers["solvers.lu_calls"] == 6   # A(lam) and the scalar operator per level


def test_install_rebinds_imported_names_and_uninstall_restores():
    from signfem import cli, experiments, mesh, solvers
    original = mesh.refine_red
    tracer = tracing.Tracer().install()
    try:
        assert experiments.refine_red is mesh.refine_red is not original
        assert hasattr(cli.check_r_conformity, "__wrapped__")
        assert solvers.spla is experiments.spla is not sys.modules["scipy.sparse.linalg"]
    finally:
        tracer.uninstall()
    assert experiments.refine_red is mesh.refine_red is original
    assert not hasattr(cli.check_r_conformity, "__wrapped__")
    assert solvers.spla is sys.modules["scipy.sparse.linalg"]


def test_corrupted_reference_fails_a_study():
    reference = copy.deepcopy(checks.load_reference()["small"]["source_deep"])
    reference["solve_source"]["x_err"][1] *= 1.001
    record = run.measure("source_deep", seed=3, seconds=0, trace=False, small=True,
                         reference=reference)
    assert record["fail_frac"] > 0
    assert not run.result_line(record)["correct"]


def test_self_time_counts_parallel_children_once():
    main, worker = threading.get_ident(), -1
    spans = [
        tracing.Span(1, None, "experiments.run", "experiments", main, 0.0, 10.0),
        tracing.Span(2, 1, "solvers.solve", "solvers", main, 1.0, 4.0),
        tracing.Span(3, 1, "solvers.solve", "solvers", worker, 2.0, 6.0),
    ]
    assert tracing.self_time(spans, "experiments") == pytest.approx(5.0)
    assert tracing.busy(s for s in spans if s.layer == "solvers") == pytest.approx(5.0)
