"""Study runners: job lists, pool scheduling and the tables they return."""

from fractions import Fraction

import pytest

from signfem import experiments as exp
from signfem.config import ExperimentConfig

# section 5.1 material on the library-default reference domain, three levels
SOURCE_51 = ExperimentConfig(kind="source", lam=1, levels=3, source=(1.0, 1.0),
                             domain="reference", patch_radius=0.3, h_coarse=0.2,
                             mu_minus=Fraction(1, 10), eps_minus=10,
                             omega_mu_sq=2, omega_eps_sq=2)
MANUFACTURED = ExperimentConfig(kind="source", lam=1, levels=3, domain="square",
                                h_coarse=0.25, fixture="manufactured")


def _sequential(task, items):
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
