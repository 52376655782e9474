"""Drude laws, contrasts, critical interval, and exact lambda-windows."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signfem import geometry as geo
from signfem import materials as mat

F = Fraction

positive_fracs = st.fractions(min_value=F(1, 40), max_value=50, max_denominator=40)


def reference_material():
    # inclusion ten times denser in both coefficients, resonances at 4 and 2
    return mat.DrudeMaterial(mu_plus=1, mu_minus=10, eps_plus=1, eps_minus=10,
                             omega_mu_sq=4, omega_eps_sq=2)


def test_drude_pointwise():
    m = mat.DrudeMaterial(mu_minus=F(1, 10), omega_mu_sq=2)
    assert mat.mu(m, F(1), "-") == F(-1, 10)
    assert mat.mu(m, 1, "+") == 1
    assert mat.eps(m, 1e300, "-") == pytest.approx(1.0)  # dispersionless limit
    assert mat.mu(m, 2, "-") == 0
    with pytest.raises(mat.MaterialError):
        mat.mu_inv(m, 2, "-")
    with pytest.raises(mat.MaterialError):
        mat.mu(m, 0, "-")
    with pytest.raises(mat.MaterialError):
        mat.mu(m, 1, "x")
    assert mat.mu_inv(m, F(1), "-") == -10
    with pytest.raises(mat.MaterialError, match=r"non-real lam = \(1\+0\.2j\)"):
        mat.mu(m, 1 + 0.2j, "-")


def test_contrasts_at_lambda_one():
    m = mat.DrudeMaterial(mu_plus=1, mu_minus=F(1, 10), eps_plus=1, eps_minus=10,
                          omega_mu_sq=2, omega_eps_sq=2)
    rep = mat.contrasts(m, F(1))
    assert rep.kappa_mu_inv == -10
    assert rep.kappa_eps == -10
    assert rep.in_critical_mu is None


def test_contrasts_degenerate_cases():
    m0 = mat.DrudeMaterial(mu_plus=2, mu_minus=5, eps_plus=4, eps_minus=3)
    for lam in (F(1), 2.5, -3):
        rep = mat.contrasts(m0, lam)
        assert rep.kappa_mu_inv == F(2, 5)
        assert rep.kappa_eps == F(3, 4)
    m = reference_material()
    assert mat.contrasts(m, F(2)).kappa_eps == 0
    with pytest.raises(mat.MaterialError):
        mat.contrasts(m, 4)  # kappa_mu_inv pole


def test_contrast_flags():
    m = reference_material()
    rep = mat.contrasts(m, F(3), i_alpha=F(5))
    assert rep.in_critical_mu is True and rep.in_critical_eps is False
    rep = mat.contrasts(m, F(1), i_alpha=F(5))
    assert rep.in_critical_mu is False and rep.in_critical_eps is False


@given(positive_fracs, positive_fracs, st.fractions(min_value=F(1, 10), max_value=10,
                                                    max_denominator=30),
       st.fractions(min_value=-20, max_value=20, max_denominator=17))
def test_contrast_algebraic_identity(mu_p, mu_m, w, lam):
    w2 = w * w
    if lam == 0 or lam == w2:
        return
    m = mat.DrudeMaterial(mu_plus=mu_p, mu_minus=mu_m, omega_mu_sq=w2)
    rep = mat.contrasts(m, lam)
    assert rep.kappa_mu_inv * (F(1) / mu_p) * (1 - w2 / lam) * mu_m == 1


@given(st.floats(min_value=-100, max_value=-1e-3), positive_fracs)
def test_negative_lambda_coercive_side(lam, w):
    m = mat.DrudeMaterial(mu_minus=3, eps_minus=F(1, 2),
                          omega_mu_sq=w * w, omega_eps_sq=w)
    assert mat.mu(m, lam, "-") > 0
    assert mat.eps(m, lam, "-") > 0


def test_critical_interval_values():
    dom = geo.make_reference_domain()
    i_alpha = mat.critical_interval(dom)
    assert i_alpha == 5 and isinstance(i_alpha, Fraction)
    square = geo.DomainSpec(((-1, -1), (2, 2)), ((0, 0), (1, 0), (1, 1), (0, 1)), 0.2)
    assert mat.critical_interval(square) == 3
    assert mat.critical_interval([geo.corner_pattern(F(1, 2))]) == 1
    windows = mat.critical_lambda_windows(reference_material(), i_alpha)
    assert windows.interval == (-5, F(-1, 5))


def test_critical_interval_invariance():
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    base = mat.critical_interval(
        geo.DomainSpec(((-2, -2), (3, 3)), square, 0.2))
    rolled = square[2:] + square[:2]
    assert mat.critical_interval(
        geo.DomainSpec(((-2, -2), (3, 3)), rolled, 0.2)) == base
    c, s = math.cos(0.5), math.sin(0.5)
    rotated = tuple((c * x - s * y, s * x + c * y) for x, y in square)
    assert mat.critical_interval(
        geo.DomainSpec(((-2, -2), (3, 3)), rotated, 0.2)) == base


def test_lambda_windows_exact():
    windows = mat.critical_lambda_windows(reference_material(), F(5))
    assert windows.window_mu == (F(8, 3), F(200, 51))
    assert windows.window_eps == (F(4, 3), F(100, 51))
    assert all(isinstance(v, Fraction) for v in windows.window_mu + windows.window_eps)
    # substituting the endpoints back hits the interval ends exactly
    m = reference_material()
    assert mat.contrasts(m, windows.window_mu[0]).kappa_mu_inv == F(-1, 5)
    assert mat.contrasts(m, windows.window_mu[1]).kappa_mu_inv == -5
    assert mat.contrasts(m, windows.window_eps[0]).kappa_eps == -5
    assert mat.contrasts(m, windows.window_eps[1]).kappa_eps == F(-1, 5)


@given(positive_fracs, positive_fracs, positive_fracs,
       st.fractions(min_value=1, max_value=30, max_denominator=12))
def test_lambda_windows_inside_resonance(cnum, cden, w, i_alpha):
    m = mat.DrudeMaterial(mu_plus=cnum, mu_minus=cden, eps_plus=cden, eps_minus=cnum,
                          omega_mu_sq=w, omega_eps_sq=w)
    windows = mat.critical_lambda_windows(m, i_alpha)
    for lo, hi in (windows.window_mu, windows.window_eps):
        assert 0 < lo <= hi < w
    assert mat.contrasts(m, windows.window_mu[0]).kappa_mu_inv == F(-1) / i_alpha
    assert mat.contrasts(m, windows.window_eps[0]).kappa_eps == -i_alpha


def test_empty_windows():
    m = mat.DrudeMaterial(mu_plus=1, mu_minus=1, eps_plus=1, eps_minus=1)
    windows = mat.critical_lambda_windows(m, F(5))
    assert windows.window_mu is None and windows.window_eps is None
    assert mat.lambda_admissible(m, windows, 1.7)


def test_lambda_admissible_reference_data():
    m = reference_material()
    windows = mat.critical_lambda_windows(m, F(5))
    assert mat.lambda_admissible(m, windows, F(1))
    assert not mat.lambda_admissible(m, windows, 1.5)
    assert not mat.lambda_admissible(m, windows, F(2))  # omega_eps^2
    assert not mat.lambda_admissible(m, windows, 4)  # omega_mu^2
    assert not mat.lambda_admissible(m, windows, 0)
    assert not mat.lambda_admissible(m, windows, F(20, 11))  # inside eps-window
    assert mat.lambda_admissible(m, windows, 5)

@pytest.mark.parametrize("m", [
    reference_material(),
    mat.DrudeMaterial(mu_minus=F(1, 10), eps_minus=10, omega_mu_sq=2, omega_eps_sq=2),
])
def test_regime_and_admissibility_agree_at_window_ends(m):
    """At both closed ends of each window regime names the window and lam is
    not admissible; a hair outside, neither."""
    windows = mat.critical_lambda_windows(m, F(5))
    hair = F(1, 10**12)
    for tag, window in (("uncovered-regime", windows.window_mu),
                        ("eps-critical", windows.window_eps)):
        for end, out in ((window[0], window[0] - hair), (window[1], window[1] + hair)):
            assert isinstance(end, F)
            assert windows.regime(end) == tag
            assert not mat.lambda_admissible(m, windows, end)
            assert windows.regime(out) == ""
            assert mat.lambda_admissible(m, windows, out)
