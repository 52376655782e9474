"""tools/cli_compare.py on small synthetic cli_outputs.sh trees."""

import importlib.util
import shutil
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cli_compare", Path(__file__).resolve().parents[1] / "tools" / "cli_compare.py")
cli_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_compare)

SPECTRUM = """# kind = spectrum
# window = 1.3333333333333333,1.9607843137254901
level,formulation,lam,residual,classification,curl_fraction,regime,scalar_match,scalar_match_rel
1,vector,1.404051643636367,3.1859123816609974e-12,curl-carrying,0.7717880993780073,eps-critical,,
1,vector,1.2761683073924075,1.2557915391546076e-13,curl-carrying,0.9896330802630903,,1.2436349996838025,0.02549296007442797
1,scalar,1.2436349996838025,2.8246828584615826e-14,,,,,
"""

FIELD = """# description = source solve
triangle,x1,x2,u1,u2,curl
0,0.004166666666666669,0.014433756729740644,-8.770532843022142,1.4378858325587638,0.05750858068124387
1,0.016666666666666673,0.03608439182435161,0.00012345678901234567,1.0281159592787386,0.03455751192484513
"""

VTK = """# vtk DataFile Version 3.0
source solve
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 3 double
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
CELLS 1 4
3 0 1 2
CELL_TYPES 1
5
CELL_DATA 2
VECTORS field double
-8.770532843022142 1.4378858325587638 0.0
0.00012345678901234567 1.0281159592787386 0.0
SCALARS curl double 1
LOOKUP_TABLE default
0.05750858068124387
0.03455751192484513
"""

STDOUT = """2 vector / 1 scalar eigenvalues in window 1.3333333333333333,1.9607843137254901
wrote <OUT>/spectrum.csv
"""


@pytest.fixture
def trees(tmp_path):
    """Two identical trees: one spectrum run and two field exports."""
    a = tmp_path / "a"
    for run, name, text in (("eigen-spectrum-eps", "spectrum.csv", SPECTRUM),
                            ("export-field-csv", "field.csv", FIELD),
                            ("export-field-vtk", "field.vtk", VTK)):
        d = a / "cfg52-r0.3" / run
        (d / "files").mkdir(parents=True)
        (d / "files" / name).write_text(text)
        (d / "exit.txt").write_text("0\n")
        (d / "stdout.txt").write_text(STDOUT if name == "spectrum.csv" else "")
        (d / "stderr.txt").write_text("")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    return a, b


def _edit(tree, rel, old, new):
    path = tree / "cfg52-r0.3" / rel
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def _run(trees, capsys):
    code = cli_compare.main([str(p) for p in trees])
    return code, capsys.readouterr().out


def test_identical_trees_pass(trees, capsys):
    code, out = _run(trees, capsys)
    assert code == 0
    assert "0 violation(s)" in out
    assert "spectrum.csv     lam" in out
    assert out.splitlines()[-1] == "12 of 12 files byte-identical"


def test_byte_identical_count(trees, capsys):
    # a residual moved within tolerance: no violation, one file less identical;
    # a file only in one tree counts in M but is never identical
    _edit(trees[1], "eigen-spectrum-eps/files/spectrum.csv",
          "3.1859123816609974e-12", "7.5e-12")
    (trees[1] / "cfg52-r0.3" / "extra.txt").write_text("")
    code, out = _run(trees, capsys)
    assert code == 1
    assert out.splitlines()[-1] == "11 of 13 files byte-identical"


def test_lam_off_by_1e_11_fails(trees, capsys):
    lam = 1.2761683073924075
    _edit(trees[1], "eigen-spectrum-eps/files/spectrum.csv",
          f"1,vector,{lam!r}", f"1,vector,{lam * (1 + 1e-11)!r}")
    code, out = _run(trees, capsys)
    assert code == 1
    assert "VIOLATION" in out and "lam: relative" in out


def test_residual_is_skipped(trees, capsys):
    _edit(trees[1], "eigen-spectrum-eps/files/spectrum.csv",
          "3.1859123816609974e-12", "7.5e-12")
    assert _run(trees, capsys)[0] == 0


def test_curl_fraction_skipped_on_eps_critical_rows_only(trees, capsys):
    _edit(trees[1], "eigen-spectrum-eps/files/spectrum.csv",
          "0.7717880993780073", "0.7717880993790073")
    assert _run(trees, capsys)[0] == 0
    _edit(trees[1], "eigen-spectrum-eps/files/spectrum.csv",
          "0.9896330802630903", "0.9896330802640903")
    assert _run(trees, capsys)[0] == 1


@pytest.mark.parametrize("rel, old, new", [
    ("eigen-spectrum-eps/files/spectrum.csv", "curl-carrying", "gradient-dominated"),
    ("eigen-spectrum-eps/exit.txt", "0", "3"),
    ("eigen-spectrum-eps/stdout.txt", "2 vector", "3 vector"),
], ids=["label", "exit-code", "printed-count"])
def test_label_exit_code_and_count_must_match(trees, capsys, rel, old, new):
    _edit(trees[1], rel, old, new)
    code, out = _run(trees, capsys)
    assert code == 1 and "VIOLATION" in out


def test_near_zero_entry_passes_normwise(trees, capsys):
    # 1e-9 relative on an entry 10^5 below its column's maximum is 1e-14
    # normwise; the elementwise maximum is printed, not judged
    u = 0.00012345678901234567
    _edit(trees[1], "export-field-csv/files/field.csv", repr(u), repr(u * (1 + 1e-9)))
    code, out = _run(trees, capsys)
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("field.csv") and
                " u1 " in l and "elementwise" in l)
    assert 5e-10 < float(line.split()[3]) < 2e-9


def test_large_entry_fails_normwise(trees, capsys):
    u = -8.770532843022142
    _edit(trees[1], "export-field-csv/files/field.csv", repr(u), repr(u * (1 + 1e-11)))
    assert _run(trees, capsys)[0] == 1


@pytest.mark.parametrize("old, new, code", [
    ("0.00012345678901234567", repr(0.00012345678901234567 * (1 + 1e-9)), 0),
    ("-8.770532843022142", repr(-8.770532843022142 * (1 + 1e-11)), 1),
    ("0.03455751192484513", repr(0.03455751192484513 * (1 + 1e-11)), 1),
    ("1.0 0.0 0.0", "1.0000000000001 0.0 0.0", 1),
], ids=["near-zero-entry", "vector-entry", "scalar-entry", "point"])
def test_vtk_arrays_normwise_geometry_exact(trees, capsys, old, new, code):
    _edit(trees[1], "export-field-vtk/files/field.vtk", old, new)
    assert _run(trees, capsys)[0] == code


def test_difference_column_judged_against_compared_values(trees, capsys):
    # scalar_match_rel = |lam - scalar| / scalar: 5e-13 absolute is within
    # 1e-12 of the values it compares, though 2e-11 of itself
    _edit(trees[1], "eigen-spectrum-eps/files/spectrum.csv",
          "0.02549296007442797", repr(0.02549296007442797 + 5e-13))
    assert _run(trees, capsys)[0] == 0


def test_missing_file_fails(trees, capsys):
    (trees[1] / "cfg52-r0.3" / "export-field-csv" / "stderr.txt").unlink()
    code, out = _run(trees, capsys)
    assert code == 1 and "only in" in out


def test_usage(tmp_path, capsys):
    assert cli_compare.main([str(tmp_path)]) == 2
