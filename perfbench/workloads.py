"""The benchmark's workloads: which studies each one runs, on which inputs,
and the output summary of every study, which checks.py compares with
reference.json.

Every study goes through a public entry point of signfem (``cli.main``, the
``experiments.run_*`` runners, ``solvers.count_eigen_window``) and looks it up
as a module attribute at call time, so the traced run sees its wrappers.
All inputs are fixed; the benchmark seed only orders the studies in a pass.

Each study takes (out_dir, small) and returns a JSON-able summary.  ``small``
selects the reduced ladders the self-test runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

from signfem import cli, experiments, fem, solvers
from signfem.config import ExperimentConfig, parse_config

# library defaults for the reference domain (patch_radius 0.3, h_coarse 0.2)
DOMAIN = dict(domain="reference", patch_radius=0.3, h_coarse=0.2)
# section 5.1 and 5.2 materials of the paper
MAT_51 = dict(mu_minus=Fraction(1, 10), eps_minus=10, omega_mu_sq=2, omega_eps_sq=2)
MAT_52 = dict(mu_minus=10, eps_minus=10, omega_mu_sq=4, omega_eps_sq=2)

# the tier-1 CLI test configs on the library-default patch radius
CFG_51 = """\
[domain]
kind = reference
patch_radius = 0.3
h_coarse = 0.2

[material]
mu_minus = 1/10
eps_minus = 10
omega_mu_sq = 2
omega_eps_sq = 2

[experiment]
lam = 1
levels = 3
source = 1,1
"""
CFG_52 = CFG_51.replace("mu_minus = 1/10", "mu_minus = 10").replace(
    "omega_mu_sq = 2", "omega_mu_sq = 4")

SPECTRUM_WINDOW = (Fraction(4, 3), Fraction(100, 51))

# ---------------------------------------------------------------- CLI verbs

def _num(cell) -> float:
    # signfem's CSV writer emits numpy scalars as "np.float64(x)"
    if isinstance(cell, str) and cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _read_csv(path: Path) -> List[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _cli(out: Path, argv: List[str], config_text: str):
    config = out / "study.cfg"
    config.write_text(config_text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--config", str(config), "--out", str(out)])
    return code, buf.getvalue()


def _levels(small: bool) -> List[str]:
    # full runs use the config's 3 levels
    return ["--levels", "2"] if small else []


def _mesh_study(noun: str) -> Callable:
    def study(out: Path, small: bool) -> dict:
        code, text = _cli(out, ["mesh", noun] + _levels(small), CFG_51)
        written = {"build": 1, "refine": 2 if small else 3, "check": 0}[noun]
        summary = {"exit": code, "files": all((out / f"mesh_level{i}.txt").is_file()
                                              for i in range(written))}
        if noun == "check":
            summary["conforming"] = "levels conforming" in text
        return summary
    return study


def cli_solve_source(out: Path, small: bool) -> dict:
    code, _ = _cli(out, ["solve", "source"], CFG_51)
    rows = _read_csv(out / "source.csv") if code == 0 else []
    return {"exit": code,
            "x_err": [_num(r["x_err"]) for r in rows],
            "l2_err": [_num(r["l2_err"]) for r in rows],
            "cross_err": [_num(r["cross_err"]) for r in rows]}


def cli_solve_scalar(out: Path, small: bool) -> dict:
    code, _ = _cli(out, ["solve", "scalar"] + _levels(small), CFG_51)
    rows = _read_csv(out / "scalar.csv") if code == 0 else []
    flux = sum(abs(_num(r["f1"])) + abs(_num(r["f2"])) for r in rows)
    return {"exit": code, "flux_l1": [flux]}


def cli_eigen_converge(out: Path, small: bool) -> dict:
    code, _ = _cli(out, ["eigen", "converge", "--window", "1.2,4/3",
                         "--shift", "1.27"] + _levels(small), CFG_52)
    rows = _read_csv(out / "eigen.csv") if code == 0 else []
    return {"exit": code, "lam": [_num(r["lam"]) for r in rows],
            "residual_max": max((_num(r["residual"]) for r in rows), default=0.0)}


def _spectrum_summary(rows) -> dict:
    """rows: (formulation, lam, residual) per eigenvalue."""
    vec = sorted(_num(lam) for kind, lam, _ in rows if kind == "vector")
    sca = sorted(_num(lam) for kind, lam, _ in rows if kind == "scalar")
    return {"vector_count": len(vec), "scalar_count": len(sca),
            "vector_lam": vec, "scalar_lam": sca,
            "residual_max": max((_num(res) for _, _, res in rows), default=0.0)}


def cli_eigen_spectrum(out: Path, small: bool) -> dict:
    code, _ = _cli(out, ["eigen", "spectrum", "--levels", "1" if small else "2",
                         "--window", "4/3,100/51", "--shift", "1.6"], CFG_52)
    rows = _read_csv(out / "spectrum.csv") if code == 0 else []
    summary = _spectrum_summary([(r["formulation"], r["lam"], r["residual"])
                                 for r in rows])
    summary["exit"] = code
    return summary


def cli_diagnose_infsup(out: Path, small: bool) -> dict:
    code, _ = _cli(out, ["diagnose", "infsup"] + _levels(small), CFG_51)
    rows = _read_csv(out / "infsup.csv") if code == 0 else []
    return {"exit": code, "beta_n": [_num(r["beta_n"]) for r in rows]}


def cli_diagnose_reflection(out: Path, small: bool) -> dict:
    code, _ = _cli(out, ["diagnose", "reflection"] + _levels(small), CFG_51)
    rows = _read_csv(out / "reflection.csv") if code == 0 else []
    return {"exit": code, "sup": [_num(r["measured_sup"]) for r in rows]}


def cli_export_field(out: Path, small: bool) -> dict:
    code, _ = _cli(out, ["export", "field", "--format", "vtk"] + _levels(small),
                   CFG_51)
    path = out / "field.vtk"
    head = path.read_text().splitlines()[:1] if path.is_file() else []
    return {"exit": code, "vtk_header": head == ["# vtk DataFile Version 3.0"]}


# ------------------------------------------------------------ study runners

def _source_cfg(levels: int) -> ExperimentConfig:
    return ExperimentConfig(kind="source", lam=1, levels=levels, source=(1.0, 1.0),
                            **DOMAIN, **MAT_51)


def source_convergence(out: Path, small: bool) -> dict:
    cfg = _source_cfg(3 if small else 5)
    table = experiments.run_source_convergence(cfg)
    return {name: [float(x) for x in table.column(name)]
            for name in ("x_err", "l2_err", "cross_err")}


def _converge_cfg(out: Path, small: bool) -> ExperimentConfig:
    return ExperimentConfig(kind="eigen-convergence", window=(1.2, Fraction(4, 3)),
                            shift=1.27, levels=2 if small else 4, out_dir=str(out),
                            **DOMAIN, **MAT_52)


def _spectrum_cfg(out: Path, small: bool) -> ExperimentConfig:
    return ExperimentConfig(kind="spectrum", window=SPECTRUM_WINDOW, shift=1.6,
                            levels=1 if small else 2, out_dir=str(out),
                            **DOMAIN, **MAT_52)


def _infsup_cfg(out: Path, small: bool) -> ExperimentConfig:
    return ExperimentConfig(kind="diagnostics", lam=1, levels=2 if small else 4,
                            out_dir=str(out), **DOMAIN, **MAT_51)


def eigen_convergence(out: Path, small: bool) -> dict:
    table = experiments.run_eigen_convergence(_converge_cfg(out, small))
    return {"lam": [float(x) for x in table.column("lam")],
            "residual_max": max(float(x) for x in table.column("residual"))}


def eigen_spectrum(out: Path, small: bool) -> dict:
    rows, _ = experiments.run_spectrum(_spectrum_cfg(out, small))
    return _spectrum_summary([row[1:4] for row in rows])


def eigen_count(out: Path, small: bool) -> dict:
    """All eigenvalues of the L1 section-5.2 pencil inside the spectrum window
    (the L0 pencil in the small variant)."""
    cfg = _spectrum_cfg(out, small)
    mesh = experiments.mesh_ladder(cfg)[-1]
    blocks = fem.assemble_blocks(mesh)
    pencil = solvers.build_pencil(mesh, blocks, cfg.material())
    window = (float(SPECTRUM_WINDOW[0]), float(SPECTRUM_WINDOW[1]))
    vals = solvers.count_eigen_window(pencil, window)
    return {"window_count": len(vals), "lam": [float(x) for x in vals]}


def infsup_diagnostic(out: Path, small: bool) -> dict:
    table = experiments.run_infsup_diagnostic(_infsup_cfg(out, small))
    return {"beta_n": [float(x) for x in table.column("beta_n")]}


# ------------------------------------------------------------- the workloads

WORKLOADS: Dict[str, Dict[str, Callable]] = {
    "cli_verbs": {
        "mesh_build": _mesh_study("build"),
        "mesh_refine": _mesh_study("refine"),
        "mesh_check": _mesh_study("check"),
        "solve_source": cli_solve_source,
        "solve_scalar": cli_solve_scalar,
        "eigen_converge": cli_eigen_converge,
        "eigen_spectrum": cli_eigen_spectrum,
        "diagnose_infsup": cli_diagnose_infsup,
        "diagnose_reflection": cli_diagnose_reflection,
        "export_field": cli_export_field,
    },
    "source_deep": {
        "solve_source": source_convergence,
    },
    "spectral": {
        "eigen_converge": eigen_convergence,
        "eigen_spectrum": eigen_spectrum,
        "eigen_count": eigen_count,
        "diagnose_infsup": infsup_diagnostic,
    },
}


def validate(workload: str, small: bool = False) -> None:
    """Build and validate every config the workload uses (its set-up work)."""
    if workload == "cli_verbs":
        parse_config(CFG_51)
        parse_config(CFG_52)
    elif workload == "source_deep":
        _source_cfg(3 if small else 5)
    elif workload == "spectral":
        for make in (_converge_cfg, _spectrum_cfg, _infsup_cfg):
            make(Path("."), small)
    else:
        raise KeyError(f"unknown workload {workload!r}")
