"""Config parsing, validation, and CLI-style overrides."""

from fractions import Fraction

import pytest

from signfem.config import (ConfigError, ExperimentConfig, load_config,
                            parse_config)

F = Fraction

FULL = """
[domain]
kind = reference
patch_radius = 0.05
h_coarse = 0.2

[material]
mu_plus = 1
mu_minus = 1/10
eps_plus = 1
eps_minus = 10
omega_mu_sq = 2
omega_eps_sq = 2

[experiment]
kind = source
lam = 1
levels = 4
source = 1,1

[output]
dir = results
"""


def test_full_roundtrip():
    cfg = parse_config(FULL)
    assert cfg.kind == "source"
    assert cfg.domain == "reference"
    assert cfg.patch_radius == 0.05
    assert cfg.mu_minus == F(1, 10)   # fractions survive parsing exactly
    assert cfg.lam == 1
    assert cfg.levels == 4
    assert cfg.source == (1.0, 1.0)
    assert cfg.out_dir == "results"
    assert cfg.material().mu_minus == F(1, 10)


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.kind == "source"
    assert cfg.lam is None
    assert cfg.windows() is not None


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[domain]\nshape = hexagon\n")


def test_unparseable_rejected():
    with pytest.raises(ConfigError, match="unparseable"):
        parse_config("[domain\nkind = reference")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nlevels = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nkind = sideways\n")
    with pytest.raises(ConfigError):
        parse_config("[domain]\nh_coarse = -0.5\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nwindow = 2,1\n")


@pytest.mark.parametrize("section, line", [
    ("experiment", "lam = inf"), ("experiment", "lam = nan"),
    ("experiment", "window = 1.2,inf"), ("experiment", "window = -inf,1.2"),
    ("experiment", "shift = inf"), ("experiment", "threshold = -inf"),
    ("experiment", "source = 1,nan"), ("domain", "patch_radius = inf"),
    ("material", "mu_minus = inf"), ("material", "omega_eps_sq = nan"),
    # past the float range: an exact int or fraction that would turn into inf
    pytest.param("experiment", "lam = 1" + "0" * 400, id="experiment-lam-huge-int"),
    pytest.param("experiment", "shift = 1" + "0" * 400 + "/3",
                 id="experiment-shift-huge-fraction"),
])
def test_non_finite_number_rejected(section, line):
    # inf and nan parse as floats; each is a config error, not an input that
    # reaches a factorization and fails there as a solver error
    field = line.split()[0]
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        parse_config(f"[{section}]\n{line}\n")


def test_shift_outside_window_rejected():
    with pytest.raises(ConfigError, match="shift 2 outside window"):
        ExperimentConfig(kind="spectrum", window=(1.2, F(4, 3)), shift=2)
    with pytest.raises(ConfigError, match="outside window"):
        parse_config("[experiment]\nwindow = 1.2,4/3\nshift = 0.5\n")
    # the window's ends belong to it, compared as the floats the solver gets
    for shift in (1.2, 4 / 3, F(4, 3)):
        assert ExperimentConfig(window=(1.2, F(4, 3)), shift=shift).shift == shift
    # a shift without a window is the runner's business
    assert ExperimentConfig(shift=7).window is None


def test_manufactured_needs_square():
    with pytest.raises(ConfigError, match="square"):
        parse_config("[experiment]\nfixture = manufactured\n")
    cfg = parse_config("[domain]\nkind = square\n[experiment]\nfixture = manufactured\n")
    assert cfg.fixture == "manufactured"
    assert cfg.domain_spec() is None


def test_critical_lambda_rejected_without_escape():
    body = FULL.replace("lam = 1", "lam = 3/2")
    with pytest.raises(ConfigError, match="critical"):
        parse_config(body)
    # the declared-negative-control escape hatch admits the same value
    cfg = parse_config(body, allow_critical=True)
    assert cfg.lam == F(3, 2)
    # but not a non-finite lam
    with pytest.raises(ConfigError, match="lam must be finite"):
        ExperimentConfig(lam=float("inf"), allow_critical=True)


def test_pole_rejected():
    with pytest.raises(ConfigError):
        parse_config(FULL.replace("lam = 1", "lam = 2"))  # omega_eps_sq = 2


def test_homogeneous_material_has_no_critical_window():
    cfg = parse_config("[experiment]\nkind = source\nlam = 3/2\nlevels = 3\n")
    assert cfg.lam == F(3, 2)  # no contrast, nothing critical


def test_load_config_with_overrides(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(FULL)
    cfg = load_config(p, levels=6, out_dir="elsewhere")
    assert cfg.levels == 6
    assert cfg.out_dir == "elsewhere"
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.cfg")
    with pytest.raises(ConfigError):
        load_config(p, not_a_field=1)


@pytest.mark.parametrize("raw", ["1.2,,4/3", ",1.2,4/3,", "1.2, ,4/3"])
def test_empty_part_of_a_pair_rejected(raw):
    with pytest.raises(ConfigError, match="pair"):
        parse_config(f"[experiment]\nwindow = {raw}\nkind = spectrum\n")


def test_window_parses_fractions():
    cfg = parse_config("[experiment]\nwindow = 4/3,100/51\nkind = spectrum\n")
    assert cfg.window == (F(4, 3), F(100, 51))


def test_comments_and_whitespace_tolerated():
    cfg = parse_config("[experiment]  # trailing\nlam = 1   ; eol comment\n")
    assert cfg.lam == 1
