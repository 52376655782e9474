"""Drude coefficients, contrasts, and the critical spectral windows.

Coefficients follow mu(lam)|_- = mu_-*(1 - omega_mu^2/lam) with lam = omega^2
(the plus side is dispersionless); the contrasts kappa_{mu^-1} and kappa_eps
decide coercivity.  All formulas stay exact when fed Fractions: the critical
lambda-windows for the reference data come out as [8/3, 200/51] and
[4/3, 100/51] on the nose, and the tests compare them exactly.
CriticalWindows.regime decides whether lam lies in a window, for
lambda_admissible and for the regime tags of spectrum.csv alike.

lam is real: the spectra come from a symmetric pencil and the source
problems are posed at real admissible lam, so the Drude law rejects any
other lam with MaterialError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .geometry import CornerPattern, DomainSpec

Number = Union[int, float, Fraction]


class MaterialError(ValueError):
    """Evaluation at a pole of the Drude law or of its inverse, or at a
    non-real lam."""


@dataclass(frozen=True)
class DrudeMaterial:
    """Material constants; omega_*_sq stored squared so sqrt inputs stay exact."""

    mu_plus: Number = 1
    mu_minus: Number = 1
    eps_plus: Number = 1
    eps_minus: Number = 1
    omega_mu_sq: Number = 0
    omega_eps_sq: Number = 0

    def __post_init__(self):
        for name in ("mu_plus", "mu_minus", "eps_plus", "eps_minus"):
            if not getattr(self, name) > 0:
                raise MaterialError(f"{name} must be positive")
        if self.omega_mu_sq < 0 or self.omega_eps_sq < 0:
            raise MaterialError("resonance frequencies must be non-negative")


def _ratio(a, b):
    # keep rational inputs exact (int/int would go float)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a, b) if isinstance(a, int) and isinstance(b, int) else Fraction(a) / Fraction(b)
    return a / b


def _drude(const, omega_sq, lam):
    if not isinstance(lam, numbers.Real):
        raise MaterialError(f"Drude law evaluated at non-real lam = {lam}; "
                            "lam must be real")
    if lam == 0:
        raise MaterialError("Drude law undefined at lam = 0")
    return const * (1 - omega_sq / lam)


def mu(mat: DrudeMaterial, lam: Number, region: str) -> Number:
    """Permeability at spectral point lam; region '+' is the constant side."""
    if region == "+":
        return mat.mu_plus
    if region == "-":
        return _drude(mat.mu_minus, mat.omega_mu_sq, lam)
    raise MaterialError(f"region must be '+' or '-', got {region!r}")


def eps(mat: DrudeMaterial, lam: Number, region: str) -> Number:
    if region == "+":
        return mat.eps_plus
    if region == "-":
        return _drude(mat.eps_minus, mat.omega_eps_sq, lam)
    raise MaterialError(f"region must be '+' or '-', got {region!r}")


def _inverse(value: Number, lam: Number) -> Number:
    # neutral wording: the scalar formulation reads eps through the mu slot
    if value == 0:
        raise MaterialError(f"Drude coefficient vanishes at lam = {lam} "
                            "(resonance pole)")
    return 1 / value


def mu_inv(mat: DrudeMaterial, lam: Number, region: str) -> Number:
    return _inverse(mu(mat, lam, region), lam)


@dataclass(frozen=True)
class ContrastReport:
    kappa_mu_inv: Number
    kappa_eps: Number
    in_critical_mu: Optional[bool] = None  # set only when an I_alpha was supplied
    in_critical_eps: Optional[bool] = None


def contrasts(mat: DrudeMaterial, lam: Number, i_alpha: Optional[Fraction] = None
              ) -> ContrastReport:
    """kappa_{mu^-1} = (mu_+/mu_-)/(1 - omega_mu^2/lam), kappa_eps mirrored.

    With i_alpha given, the report flags membership of each contrast in the
    critical interval [-I_alpha, -1/I_alpha].
    """
    if lam == 0 or lam == mat.omega_mu_sq:
        raise MaterialError(f"kappa_mu_inv has a pole at lam = {lam}")
    k_mu = _ratio(mat.mu_plus, mat.mu_minus)
    if mat.omega_mu_sq != 0:
        k_mu = k_mu / (1 - mat.omega_mu_sq / lam)
    k_eps = _ratio(mat.eps_minus, mat.eps_plus)
    if mat.omega_eps_sq != 0:
        k_eps = k_eps * (1 - mat.omega_eps_sq / lam)
    flag_mu = flag_eps = None
    if i_alpha is not None:
        lo, hi = -i_alpha, -Fraction(1) / i_alpha
        flag_mu = lo <= k_mu <= hi
        flag_eps = lo <= k_eps <= hi
    return ContrastReport(k_mu, k_eps, flag_mu, flag_eps)


@dataclass(frozen=True)
class CriticalWindows:
    """I_alpha with the lambda-intervals on which each contrast is critical."""

    i_alpha: Fraction
    window_mu: Optional[Tuple[Number, Number]]
    window_eps: Optional[Tuple[Number, Number]]

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        return -self.i_alpha, -Fraction(1) / self.i_alpha

    def regime(self, lam: Number) -> str:
        """The closed windows that hold lam, as the spectrum.csv regime tags
        joined by "|": "uncovered-regime" (the mu window, outside the paper's
        mu-contrast assumption), then "eps-critical"; "" outside both."""
        tagged = (("uncovered-regime", self.window_mu), ("eps-critical", self.window_eps))
        return "|".join(tag for tag, window in tagged
                        if window is not None and window[0] <= lam <= window[1])


def critical_interval(domain: Union[DomainSpec, Iterable[CornerPattern]]) -> Fraction:
    """I_alpha = max over corners of max((2pi-alpha)/alpha, alpha/(2pi-alpha)),
    exact; the critical contrast interval is [-I_alpha, -1/I_alpha]."""
    patterns = domain.patterns if isinstance(domain, DomainSpec) else tuple(domain)
    if not patterns:
        raise MaterialError("no corner patterns supplied")
    ratios = []
    for pat in patterns:
        q = pat.q
        ratios.append(max((1 - q) / q, q / (1 - q)))
    return max(ratios)


def critical_lambda_windows(mat: DrudeMaterial, i_alpha) -> CriticalWindows:
    """Solve kappa(lam) in [-I_alpha, -1/I_alpha] for both contrasts in closed
    form.  Dispersionless contrasts are positive, hence never critical: the
    corresponding window is None."""
    i_alpha = i_alpha if isinstance(i_alpha, Fraction) else Fraction(i_alpha)
    if i_alpha < 1:
        raise MaterialError("I_alpha must be >= 1")
    window_mu = window_eps = None
    if mat.omega_mu_sq != 0:
        # kappa_mu_inv = c*lam/(lam - w2), c = mu_+/mu_-: decreasing on (0, w2)
        c, w2 = _ratio(mat.mu_plus, mat.mu_minus), mat.omega_mu_sq
        window_mu = (w2 / (1 + c * i_alpha), i_alpha * w2 / (i_alpha + c))
    if mat.omega_eps_sq != 0:
        # kappa_eps = d*(lam - w2)/lam, d = eps_-/eps_+: increasing on (0, w2)
        d, w2 = _ratio(mat.eps_minus, mat.eps_plus), mat.omega_eps_sq
        window_eps = (d * w2 / (d + i_alpha), d * i_alpha * w2 / (d * i_alpha + 1))
    return CriticalWindows(i_alpha, window_mu, window_eps)


def lambda_admissible(mat: DrudeMaterial, windows: CriticalWindows, lam: Number) -> bool:
    """True iff the real lam avoids {0, omega_mu^2, omega_eps^2} and both
    critical windows (CriticalWindows.regime)."""
    return lam not in (0, mat.omega_mu_sq, mat.omega_eps_sq) and not windows.regime(lam)
