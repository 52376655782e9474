"""Verb wiring, exit codes, and output files of the command-line runner."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signfem
from signfem import solvers as sol
from signfem.cli import main

CFG_51 = """
[domain]
kind = reference
patch_radius = 0.05
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


@pytest.fixture
def cfg51(tmp_path):
    p = tmp_path / "exp51.cfg"
    p.write_text(CFG_51)
    return str(p)


@pytest.fixture
def cfg52(tmp_path):
    p = tmp_path / "exp52.cfg"
    p.write_text(CFG_52)
    return str(p)


def test_mesh_build_writes_mesh(cfg51, tmp_path):
    out = tmp_path / "o"
    assert main(["mesh", "build", "--config", cfg51, "--out", str(out)]) == 0
    assert (out / "mesh_level0.txt").is_file()


def test_mesh_refine_writes_ladder(cfg51, tmp_path):
    out = tmp_path / "o"
    assert main(["mesh", "refine", "--config", cfg51, "--levels", "2",
                 "--out", str(out)]) == 0
    assert (out / "mesh_level0.txt").is_file()
    assert (out / "mesh_level1.txt").is_file()


def test_mesh_check_passes(cfg51, tmp_path, capsys):
    assert main(["mesh", "check", "--config", cfg51, "--levels", "2",
                 "--out", str(tmp_path)]) == 0
    assert "conforming" in capsys.readouterr().out


def test_mesh_check_square_is_noop(tmp_path, capsys):
    p = tmp_path / "sq.cfg"
    p.write_text("[domain]\nkind = square\n")
    assert main(["mesh", "check", "--config", str(p), "--levels", "1",
                 "--out", str(tmp_path)]) == 0
    assert "nothing to check" in capsys.readouterr().out


def test_solve_source_needs_lam(tmp_path):
    assert main(["solve", "source", "--out", str(tmp_path)]) == 2


def test_solve_source_writes_table(cfg51, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["solve", "source", "--config", cfg51, "--out", str(out)]) == 0
    text = (out / "source.csv").read_text()
    assert "level,h_max,dofs,x_err,l2_err,cross_err" in text
    assert "# lam = 1" in text


def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the source table (its norms run after the pool) and the inf-sup table
    # (its Lanczos solves run in the pool), once with one BLAS thread and
    # once with OpenBLAS's default of one per core; on a one-core machine
    # the two agree trivially
    cfg = tmp_path / "exp51.cfg"
    cfg.write_text(CFG_51.replace("patch_radius = 0.05", "patch_radius = 0.3"))
    src = str(Path(signfem.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tables = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"o{len(tables)}"
        for verb in (["solve", "source"], ["diagnose", "infsup"]):
            subprocess.run([sys.executable, "-m", "signfem", *verb,
                            "--config", str(cfg), "--out", str(out)],
                           env={**env, **threads}, check=True, capture_output=True)
        tables.append([(out / name).read_bytes()
                       for name in ("source.csv", "infsup.csv")])
    assert tables[0] == tables[1]


def test_solve_source_levels_guard(cfg51, tmp_path):
    assert main(["solve", "source", "--config", cfg51, "--levels", "1",
                 "--out", str(tmp_path)]) == 2


def test_solve_scalar_writes_flux(cfg51, tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "scalar", "--config", cfg51, "--levels", "1",
                 "--out", str(out)]) == 0
    lines = (out / "scalar.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")]
    assert header[0] == "triangle,x1,x2,f1,f2"


def _with_bad_pair(monkeypatch, kind):
    # every solve of a `kind` pencil also returns one pair above the residual
    # gate, which the study must refuse rather than drop
    solve_eigen = sol.solve_eigen

    def with_bad_pair(mesh, blocks, mat, pencil, **kwargs):
        pairs = solve_eigen(mesh, blocks, mat, pencil, **kwargs)
        if pencil.layout.kind != kind:
            return pairs
        return pairs + [dataclasses.replace(pairs[0], lam=1.25, residual=1.0)]

    monkeypatch.setattr(sol, "solve_eigen", with_bad_pair)


def test_eigen_converge(cfg52, tmp_path, capsys, monkeypatch):
    args = ["eigen", "converge", "--config", cfg52, "--levels", "2",
            "--window", "1.2,4/3", "--shift", "1.27"]
    out = tmp_path / "o"
    assert main(args + ["--out", str(out)]) == 0
    assert (out / "eigen.csv").is_file()
    assert "err_vs_finest" in capsys.readouterr().out
    assert "dropped_by_filter" not in (out / "eigen.csv").read_text()

    _with_bad_pair(monkeypatch, "edge")
    assert main(args + ["--out", str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert "edge eigenpair at lam=1.25" in err and "1.000e+00" in err
    assert not (tmp_path / "bad" / "eigen.csv").exists()


def test_eigen_csv_cells_are_plain_floats(cfg52, tmp_path):
    # NumPy scalars must not leak their repr ("np.float64(...)") into a cell
    assert main(["eigen", "converge", "--config", cfg52, "--levels", "2",
                 "--window", "1.2,4/3", "--shift", "1.27",
                 "--out", str(tmp_path)]) == 0
    lines = [line for line in (tmp_path / "eigen.csv").read_text().splitlines()
             if not line.startswith("#")]
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert "err_vs_scalar_finest" in header and len(rows) == 2
    for row in rows:
        assert len(row) == len(header)
        for cell in row:
            float(cell)


def test_eigen_converge_without_window(cfg52, tmp_path):
    assert main(["eigen", "converge", "--config", cfg52, "--levels", "2",
                 "--out", str(tmp_path)]) == 2


def test_eigen_spectrum(cfg52, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["eigen", "spectrum", "--config", cfg52, "--levels", "2",
                 "--window", "1.2,4/3", "--shift", "1.27",
                 "--out", str(out)]) == 0
    assert (out / "spectrum.csv").is_file()
    assert "eigenvalues in window" in capsys.readouterr().out


def test_eigen_spectrum_bad_scalar_pair_fails(cfg52, tmp_path, capsys,
                                              monkeypatch):
    _with_bad_pair(monkeypatch, "scalar")
    assert main(["eigen", "spectrum", "--config", cfg52, "--levels", "2",
                 "--window", "1.2,4/3", "--shift", "1.27",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "level 1 scalar eigenpair at lam=1.25" in err and "1.000e+00" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_eigen_target_missing_is_solver_failure(cfg51, tmp_path):
    # the contrast-ten material has no eigenvalue in this window
    assert main(["eigen", "converge", "--config", cfg51, "--levels", "2",
                 "--window", "1.2,4/3", "--shift", "1.27",
                 "--out", str(tmp_path)]) == 3


def test_diagnose_infsup(cfg51, tmp_path):
    out = tmp_path / "o"
    assert main(["diagnose", "infsup", "--config", cfg51, "--levels", "2",
                 "--out", str(out)]) == 0
    assert (out / "infsup.csv").is_file()


def test_diagnose_reflection(cfg51, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["diagnose", "reflection", "--config", cfg51, "--levels", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "corner 0" in text and "edge 2" in text
    assert (out / "reflection.csv").is_file()


def test_export_field_csv_and_vtk(cfg51, tmp_path):
    out = tmp_path / "o"
    assert main(["export", "field", "--config", cfg51, "--levels", "1",
                 "--out", str(out)]) == 0
    assert (out / "field.csv").is_file()
    assert main(["export", "field", "--config", cfg51, "--levels", "1",
                 "--out", str(out), "--format", "vtk"]) == 0
    lines = (out / "field.vtk").read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    # past the four header lines, every line is a keyword line (POINTS,
    # CELLS, ...) or plain numbers a VTK reader can parse
    data = [ln.split() for ln in lines[4:] if not ln.split()[0].isupper()]
    assert len(data) > 4
    for tokens in data:
        for tok in tokens:
            float(tok)


def test_critical_lambda_gate(cfg51, tmp_path):
    bad = tmp_path / "crit.cfg"
    bad.write_text(CFG_51.replace("lam = 1", "lam = 3/2"))
    args = ["diagnose", "infsup", "--config", str(bad), "--levels", "1",
            "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert main(args + ["--allow-critical"]) == 0


def test_malformed_window_flag(cfg52, tmp_path):
    assert main(["eigen", "spectrum", "--config", cfg52, "--window", "1.2",
                 "--out", str(tmp_path)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["mesh", "build", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 2


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
