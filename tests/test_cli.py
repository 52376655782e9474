"""Verb wiring, exit codes, and output files of the command-line runner."""

import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import signfem
from signfem import cli, config, experiments as exp, fem, geometry as geo, solvers as sol
from signfem.cli import EXIT_CONFIG, main
from signfem.config import load_config

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


def test_mesh_build_refines_nothing(cfg51, tmp_path, monkeypatch):
    # mesh build writes level 0 only, so it builds only the coarse mesh:
    # no red refinement, and the level-0 file mesh refine writes
    real_refine_red, calls = exp.refine_red, []

    def refine_red(mesh):
        calls.append(mesh)
        return real_refine_red(mesh)

    assert main(["mesh", "refine", "--config", cfg51, "--levels", "2",
                 "--out", str(tmp_path / "ladder")]) == 0
    monkeypatch.setattr(exp, "refine_red", refine_red)
    assert main(["mesh", "build", "--config", cfg51, "--out", str(tmp_path / "o")]) == 0
    assert calls == []
    assert ((tmp_path / "o" / "mesh_level0.txt").read_bytes()
            == (tmp_path / "ladder" / "mesh_level0.txt").read_bytes())


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


def test_mesh_check_names_unchecked_corners(cfg51, tmp_path, capsys, monkeypatch):
    # the hexagon's (4,2) corners admit no fold maps; the reference domain's
    # output has no such line
    assert main(["mesh", "check", "--config", cfg51, "--levels", "1",
                 "--out", str(tmp_path)]) == 0
    assert "unchecked" not in capsys.readouterr().out
    hexagon = tuple((0.5 + 0.5 * math.cos(k * math.pi / 3), 0.5 + 0.5 * math.sin(k * math.pi / 3))
                    for k in range(6))
    dom = geo.DomainSpec(((-0.5, -0.5), (1.5, 1.5)), hexagon, 0.15)
    monkeypatch.setattr(config.ExperimentConfig, "domain_spec", lambda self: dom)
    assert main(["mesh", "check", "--config", cfg51, "--levels", "1",
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l for l in lines if "unchecked" in l] == [
        f"corner {n} unchecked: p_plus and p_minus both even, no fold maps"
        " (edge mirrors checked)" for n in range(6)]
    assert lines[-1].startswith("all 1 levels conforming")


def test_mesh_check_square_is_noop(tmp_path, capsys, monkeypatch):
    # the square domain has nothing to check, so no mesh is built
    _no_mesh_ladder(monkeypatch)
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


def _with_bad_pair(monkeypatch, target):
    # in every eigen solve of the target formulation the first pair's
    # rational residual reads 1.0, above the gate, which solve_eigen must
    # refuse rather than drop; returns the lam of every pair so refused
    residual_evaluator = sol.residual_evaluator
    refused = []

    def evaluator(mesh, blocks, mat):
        if blocks.form is not target:
            return residual_evaluator(mesh, blocks, mat)

        def evaluate(lam, u):
            refused.append(lam)
            return 1.0
        return evaluate

    monkeypatch.setattr(sol, "residual_evaluator", evaluator)
    return refused


def _no_mesh_ladder(monkeypatch):
    # a config mistake exits 2 before any mesh is built
    def mesh_ladder(cfg):
        raise AssertionError("mesh ladder built for a bad config")

    monkeypatch.setattr(exp, "mesh_ladder", mesh_ladder)


def test_eigen_converge(cfg52, tmp_path, capsys, monkeypatch):
    args = ["eigen", "converge", "--config", cfg52, "--levels", "2",
            "--window", "1.2,4/3", "--shift", "1.27"]
    out = tmp_path / "o"
    assert main(args + ["--out", str(out)]) == 0
    assert (out / "eigen.csv").is_file()
    assert "err_vs_finest" in capsys.readouterr().out
    assert "dropped_by_filter" not in (out / "eigen.csv").read_text()

    refused = _with_bad_pair(monkeypatch, fem.EDGE)
    assert main(args + ["--out", str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert any(f"edge eigenpair at lam={lam} " in err for lam in refused)
    assert "1.000e+00 > 1e-08" in err
    assert not (tmp_path / "bad" / "eigen.csv").exists()


def test_eigen_csv_cells_are_plain_floats(cfg51, cfg52, tmp_path):
    # NumPy scalars must not leak their repr ("np.float64(...)") into a cell,
    # and every float cell is its shortest repr, which a longdouble's str is
    # not; the reflection sups are NumPy float64
    window = ["--window", "1.2,4/3", "--shift", "1.27"]
    for argv, name, floats in [
        (["eigen", "converge", "--config", cfg52, *window], "eigen.csv",
         ("h_max", "lam", "residual", "err_vs_finest", "err_vs_scalar_finest")),
        (["eigen", "spectrum", "--config", cfg52, *window], "spectrum.csv",
         ("lam", "residual", "curl_fraction", "scalar_match", "scalar_match_rel")),
        (["diagnose", "reflection", "--config", cfg51], "reflection.csv",
         ("measured_sup", "measured_sup_squared", "formula_value", "drift_last_two")),
    ]:
        out = tmp_path / name
        assert main(argv + ["--levels", "2", "--out", str(out)]) == 0
        lines = [line for line in (out / name).read_text().splitlines()
                 if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert rows and set(floats) <= set(header)
        for row in rows:
            assert len(row) == len(header)
            assert not any("(" in cell for cell in row)
        for col in floats:
            cells = [row[header.index(col)] for row in rows]
            # a vector row has all of them; a scalar row leaves its match empty
            assert any(cells), (name, col)
            assert all(repr(float(c)) == c for c in cells if c), (name, col)


def test_shift_flag_takes_a_fraction(cfg52, tmp_path):
    # --shift reads as the config key does: 127/100 is the shift 1.27
    files = []
    for n, shift in enumerate(("1.27", "127/100")):
        out = tmp_path / f"o{n}"
        assert main(["eigen", "converge", "--config", cfg52, "--levels", "2",
                     "--window", "1.2,4/3", "--shift", shift, "--out", str(out)]) == 0
        files.append((out / "eigen.csv").read_bytes())
    assert files[0] == files[1]


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


def test_eigen_spectrum_eps_window_at_small_patch_radius(cfg52, tmp_path):
    # patch radius 0.05: factoring S - (100/51) T failed the 1e-10 inertia
    # probe at L1 (backward error 1.9e-10); the factor of A(100/51) passes
    out = tmp_path / "o"
    assert main(["eigen", "spectrum", "--config", cfg52, "--levels", "2",
                 "--window", "4/3,100/51", "--shift", "1.6",
                 "--out", str(out)]) == 0
    assert (out / "spectrum.csv").is_file()


def test_eigen_spectrum_bad_scalar_pair_fails(cfg52, tmp_path, capsys,
                                              monkeypatch):
    refused = _with_bad_pair(monkeypatch, fem.SCALAR)
    assert main(["eigen", "spectrum", "--config", cfg52, "--levels", "2",
                 "--window", "1.2,4/3", "--shift", "1.27",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert len(refused) == 1
    assert f"scalar eigenpair at lam={refused[0]} " in err
    assert "1.000e+00 > 1e-08" in err
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("noun, shift", [("spectrum", "2"), ("converge", "0.5")])
def test_shift_outside_window_is_config_error(cfg52, tmp_path, capsys, monkeypatch,
                                              noun, shift):
    # not a solver error after the whole ladder
    _no_mesh_ladder(monkeypatch)
    assert main(["eigen", noun, "--config", cfg52, "--window", "1.2,4/3",
                 "--shift", shift, "--out", str(tmp_path)]) == EXIT_CONFIG
    # the flag reads as the config key does: "2" is the int 2
    assert f"shift {shift} outside window" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flags, field", [
    ("solve scalar", [], "lam"),
    ("diagnose infsup", [], "lam"),
    ("export field", [], "lam"),
    ("eigen spectrum", ["--window", "1.2,inf"], "window"),
    ("eigen converge", ["--window", "1.2,inf", "--shift", "1.27"], "window"),
], ids=["solve-scalar", "diagnose-infsup", "export-field", "spectrum", "converge"])
def test_non_finite_number_is_config_error(cfg52, tmp_path, capsys, monkeypatch,
                                           verb, flags, field):
    # lam = inf and an infinite window end used to reach SuperLU and exit 3
    # with "Factor is exactly singular"
    text = Path(cfg52).read_text()
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(text.replace("lam = 1", "lam = inf") if field == "lam" else text)
    _no_mesh_ladder(monkeypatch)
    assert main([*verb.split(), "--config", str(cfg), *flags,
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["solve scalar", "export field"])
def test_constant_source_verbs_refuse_a_fixture(tmp_path, capsys, monkeypatch, verb):
    # both verbs solve the constant source; on a manufactured config they
    # used to solve it anyway and exit 0
    cfg = tmp_path / "mms.cfg"
    cfg.write_text("[domain]\nkind = square\n[experiment]\nlam = 1\nlevels = 2\n"
                   "fixture = manufactured\n")
    _no_mesh_ladder(monkeypatch)
    assert main([*verb.split(), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "fixture = manufactured" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_diagnose_reflection_needs_two_levels(cfg51, tmp_path, capsys, monkeypatch):
    # with one level there is no drift to measure; it used to be written
    # as 0.0, a perfect stabilization nothing had shown
    _no_mesh_ladder(monkeypatch)
    assert main(["diagnose", "reflection", "--config", cfg51, "--levels", "1",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "reflection diagnostic needs >= 2 levels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scalar_csv_matches_row_writer(cfg51, tmp_path):
    # the verb's flux table at L1 and L2 against the per-row writer
    for levels in (2, 3):
        out = tmp_path / f"L{levels - 1}"
        assert main(["solve", "scalar", "--config", cfg51, "--levels", str(levels),
                     "--out", str(out)]) == 0
        cfg = load_config(cfg51, kind="source", levels=levels)
        m = exp.mesh_ladder(cfg)[-1]
        blocks = fem.assemble_blocks(m, fem.SCALAR)
        lam = float(cfg.lam)
        v = sol.solve_source(m, blocks, cfg.material(), lam, cfg.source)
        flux = fem.potential_flux(m, cfg.material(), lam, v.coeffs)
        bary = m.barycenters()
        rows = "".join(f"{t},{float(bary[t, 0])!r},{float(bary[t, 1])!r},"
                       f"{float(flux[t, 0])!r},{float(flux[t, 1])!r}\n"
                       for t in range(m.num_triangles))
        lines = (out / "scalar.csv").read_text().splitlines(keepends=True)
        meta = [ln for ln in lines if ln.startswith("#")]
        assert "".join(lines[len(meta):]) == "triangle,x1,x2,f1,f2\n" + rows


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


def test_window_flag_with_empty_part(cfg52, tmp_path):
    assert main(["eigen", "spectrum", "--config", cfg52, "--window", "1.2,,4/3",
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_missing_config_file(tmp_path):
    assert main(["mesh", "build", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 2


def test_levels_zero_without_config_is_config_error(tmp_path, capsys):
    # without --config the flags go through the same parser as a file's keys
    assert main(["mesh", "build", "--levels", "0",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "levels must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def _choices(parser):
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_has_the_verbs_of_the_docstring():
    # exactly the ten (verb, noun) pairs the module docstring names, each with
    # --help, and --format on export field alone
    named = {(verb, noun)
             for verb, nouns in re.findall(r"``(\w+)\s+([\w|]+)``", cli.__doc__)
             for noun in nouns.split("|")}
    parser = cli.build_parser()
    pairs = {(verb, noun) for verb, sub in _choices(parser).items()
             for noun in _choices(sub)}
    assert len(named) == 10 and pairs == named
    for verb, noun in sorted(pairs):
        with pytest.raises(SystemExit) as exc:
            main([verb, noun, "--help"])
        assert exc.value.code == 0
        if (verb, noun) != ("export", "field"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([verb, noun, "--format", "csv"])
            assert exc.value.code == 2
    assert parser.parse_args(["export", "field", "--format", "vtk"]).format == "vtk"
