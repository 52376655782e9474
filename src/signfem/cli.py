"""Command-line experiment runner.

Verbs mirror the pipeline: ``mesh build|refine|check`` for the conforming
mesh ladder, ``solve source|scalar`` for the direct problems, ``eigen
spectrum|converge`` for the spectral studies, ``diagnose reflection|infsup``
for stability diagnostics, and ``export field`` for per-triangle field dumps.
One table (_VERBS) maps (verb, noun) to a handler; the parser is built
from it and main dispatches through it.

Every command reads an optional config file (--config, flat key/value
sections); flags override single keys, and the verb fixes the experiment
kind regardless of what the file declares; --levels, --out, --window and
--shift read as the config keys they stand for (config.read_key).  Exit
codes: 0 success, 2 config error, 3 solver failure, 4 conformity failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import experiments as exp
from . import fem
from . import solvers as sol
from .config import ConfigError, ExperimentConfig, load_config, parse_config, read_key
from .fem import FemError
from .geometry import GeometryError
from .materials import MaterialError
from .mesh import MeshError, check_r_conformity, mesh_write
from .reflection import ReflectionError
from .solvers import SolverError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CONFORMITY = 4

# flag -> the config key it stands for
_FLAG_KEYS = {"levels": ("experiment", "levels"), "out": ("output", "dir"),
              "window": ("experiment", "window"), "shift": ("experiment", "shift")}


def _load(args, kind=None) -> ExperimentConfig:
    overrides = dict(read_key(section, key, getattr(args, flag))
                     for flag, (section, key) in _FLAG_KEYS.items()
                     if getattr(args, flag) is not None)
    if kind is not None:
        overrides["kind"] = kind
    if args.allow_critical:
        overrides["allow_critical"] = True
    if args.config is not None:
        return load_config(args.config, **overrides)
    return parse_config("", **overrides)


def _print_table(table: exp.ResultTable) -> None:
    for key, val in table.metadata:
        print(f"# {key} = {val}")
    widths = [max(len(c), 12) for c in table.columns]
    print("  ".join(c.rjust(w) for c, w in zip(table.columns, widths)))
    for row in table.rows:
        cells = [x if isinstance(x, str) else f"{float(x):.6g}" for x in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))


def _mesh_summary(level: int, mesh) -> str:
    return (f"level {level}: h_max {mesh.h_max:.5f}  vertices {mesh.num_vertices}"
            f"  triangles {mesh.num_triangles}  edges {mesh.num_edges}")


def _mesh_build(args) -> int:
    cfg = _load(args)
    mesh = exp.coarse_mesh(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh_write(mesh, out / "mesh_level0.txt")
    print(_mesh_summary(0, mesh))
    print(f"wrote {out / 'mesh_level0.txt'}")
    return EXIT_OK


def _mesh_refine(args) -> int:
    cfg = _load(args)
    meshes = exp.mesh_ladder(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, m in enumerate(meshes):
        mesh_write(m, out / f"mesh_level{i}.txt")
        print(_mesh_summary(i, m))
    print(f"wrote {len(meshes)} meshes under {out}")
    return EXIT_OK


def _mesh_check(args) -> int:
    """Patch conformity level by level (reference domain only)."""
    cfg = _load(args)
    dom = cfg.domain_spec()
    if dom is None:
        print("square domain has no patch structure; nothing to check")
        return EXIT_OK
    meshes = exp.mesh_ladder(cfg)
    worst = 0.0
    for i, m in enumerate(meshes):
        report = check_r_conformity(m, dom)
        worst = max(worst, report.max_vertex_mismatch)
        status = "ok" if report else f"FAILED ({len(report.violations)} violations)"
        print(f"{_mesh_summary(i, m)}  conformity {status}"
              f"  mismatch {report.max_vertex_mismatch:.3e}")
        if not report:
            for tri, map_id, desc in report.violations[:10]:
                print(f"  triangle {tri} via {map_id}: {desc}", file=sys.stderr)
            return EXIT_CONFORMITY
    for _, n in report.unchecked:
        print(f"corner {n} unchecked: p_plus and p_minus both even, no fold maps"
              " (edge mirrors checked)")
    print(f"all {len(meshes)} levels conforming (worst mismatch {worst:.3e})")
    return EXIT_OK


def _print_reflection(table: exp.ResultTable) -> None:
    for pat, idx, direction, sup, _, formula, drift in table.rows:
        print(f"{pat} {idx} ({direction}): sup {sup:.6f}  formula {formula:.6f}"
              f"  drift {drift:.2e}")


def _table_verb(kind: str, runner: str, filename: str, show):
    """Handler that runs exp.<RUNNER> (looked up at call time) on a KIND
    config, prints its table with SHOW and writes it to FILENAME."""
    def handler(args) -> int:
        cfg = _load(args, kind=kind)
        table = getattr(exp, runner)(cfg)
        show(table)
        print(f"wrote {table.write_csv(Path(cfg.out_dir) / filename)}")
        return EXIT_OK
    return handler


def _finest_source(args, what: str):
    """Config and finest mesh of a verb that solves the constant source."""
    cfg = _load(args, kind="source")
    if cfg.lam is None:
        raise ConfigError(f"{what} needs lam")
    if cfg.fixture != "none":
        raise ConfigError(f"{what} takes the constant source, not "
                          f"fixture = {cfg.fixture}")
    return cfg, exp.mesh_ladder(cfg)[-1]


def _solve_scalar(args) -> int:
    """Potential solve on the finest ladder level, flux dumped per triangle."""
    cfg, m = _finest_source(args, "scalar solve")
    blocks = fem.assemble_blocks(m, fem.SCALAR)
    lam = float(cfg.lam)
    mat = cfg.material()
    v = sol.solve_source(m, blocks, mat, lam, cfg.source).coeffs
    table = exp.ResultTable.per_triangle(
        m, ("f1", "f2"), fem.potential_flux(m, mat, lam, v).T,
        [("description", "scalar-potential flux at barycenters"),
         ("lam", repr(lam)),
         ("level", str(cfg.levels - 1)),
         ("h_max", repr(float(m.h_max))),
         ("dofs", str(m.num_vertices))])
    path = table.write_csv(Path(cfg.out_dir) / "scalar.csv")
    l2sq = fem.block_norm_sq(blocks.mass, v)
    h1sq = l2sq + fem.block_norm_sq(blocks.stiffness, v)
    print(f"level {cfg.levels - 1}: dofs {m.num_vertices}"
          f"  |v|_H1 {math.sqrt(h1sq):.6g}  |v|_L2 {math.sqrt(l2sq):.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def _eigen_spectrum(args) -> int:
    cfg = _load(args, kind="spectrum")
    rows, path = exp.run_spectrum(cfg)
    nvec = sum(1 for r in rows if r[1] == "vector")
    nsca = len(rows) - nvec
    print(f"{nvec} vector / {nsca} scalar eigenvalues in window"
          f" {exp.window_str(cfg.window)}")
    print(f"wrote {path}")
    return EXIT_OK


def _export_field(args) -> int:
    cfg, m = _finest_source(args, "field export")
    lam = float(cfg.lam)
    s = sol.solve_source(m, fem.assemble_blocks(m), cfg.material(), lam, cfg.source)
    path = exp.export_field(m, s.coeffs, lam,
                            Path(cfg.out_dir) / f"field.{args.format}",
                            format=args.format)
    print(f"level {cfg.levels - 1}: dofs {len(fem.EDGE.space(m).free)}"
          f"  residual {s.residual:.2e}")
    print(f"wrote {path}")
    return EXIT_OK


# (verb, noun) -> handler, in the order the parser lists them
_VERBS = {
    ("mesh", "build"): _mesh_build,
    ("mesh", "refine"): _mesh_refine,
    ("mesh", "check"): _mesh_check,
    ("solve", "source"): _table_verb("source", "run_source_convergence",
                                     "source.csv", _print_table),
    ("solve", "scalar"): _solve_scalar,
    ("eigen", "spectrum"): _eigen_spectrum,
    ("eigen", "converge"): _table_verb("eigen-convergence", "run_eigen_convergence",
                                       "eigen.csv", _print_table),
    ("diagnose", "reflection"): _table_verb("diagnostics", "run_reflection_diagnostic",
                                            "reflection.csv", _print_reflection),
    ("diagnose", "infsup"): _table_verb("diagnostics", "run_infsup_diagnostic",
                                        "infsup.csv", _print_table),
    ("export", "field"): _export_field,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="experiment config file")
    p.add_argument("--levels", metavar="N", help="refinement levels")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--window", metavar="A,B", help="lambda window (fractions ok)")
    p.add_argument("--shift", metavar="S", help="spectral shift (fractions ok)")
    p.add_argument("--allow-critical", action="store_true",
                   help="permit lam inside a critical window (negative controls)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signfem",
        description="experiments for the sign-changing transmission problem")
    verbs = parser.add_subparsers(dest="verb", required=True)
    nouns = {}
    for verb, noun in _VERBS:
        if verb not in nouns:
            nouns[verb] = verbs.add_parser(verb).add_subparsers(dest="noun",
                                                               required=True)
        p = nouns[verb].add_parser(noun)
        _add_common(p)
        if verb == "export":
            p.add_argument("--format", choices=("csv", "vtk"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _VERBS[args.verb, args.noun](args)
    except (ConfigError, MaterialError, GeometryError) as err:
        print(f"signfem: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, FemError, ReflectionError) as err:
        print(f"signfem: solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except MeshError as err:
        print(f"signfem: conformity error: {err}", file=sys.stderr)
        return EXIT_CONFORMITY


if __name__ == "__main__":
    sys.exit(main())
