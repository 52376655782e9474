"""Experiment configuration: flat key-value text with TOML-style sections.

A config file has four sections -- [domain], [material], [experiment],
[output] -- each holding scalar keys only (no nesting), so fixtures stay
hand-editable in tests.  Numeric values may be written as integers, floats,
or exact fractions "p/q"; fractions survive into the material constants, so
the critical windows derived from a config are exact when the inputs are.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple, Union

from . import materials as mats
from .geometry import DomainSpec, make_reference_domain

Number = Union[int, float, Fraction]

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config",
           "read_key"]

KINDS = ("source", "spectrum", "eigen-convergence", "diagnostics")
DOMAINS = ("reference", "square")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: domain, material, spectral data, and output.

    lam / window / shift are optional because each experiment kind consumes a
    different subset; validation of the subset happens in the runner, while
    the cross-cutting invariants -- any referenced real lam must be admissible
    for the configured material unless allow_critical declares the run a
    negative control, and a shift must lie in its window -- are enforced
    here at construction, as is that every number is finite.

    h_coarse is the target edge length of the coarse mesh's leftover
    regions, not its h_max: the corner-patch triangles have sides of length
    patch_radius, so the coarse h_max never drops below patch_radius (it is
    0.3 for the defaults, and for every h_coarse below 0.3).
    """

    kind: str = "source"
    # domain
    domain: str = "reference"
    patch_radius: float = 0.3
    h_coarse: float = 0.2
    # material
    mu_plus: Number = 1
    mu_minus: Number = 1
    eps_plus: Number = 1
    eps_minus: Number = 1
    omega_mu_sq: Number = 0
    omega_eps_sq: Number = 0
    # experiment
    lam: Optional[Number] = None
    window: Optional[Tuple[Number, Number]] = None
    shift: Optional[Number] = None
    levels: int = 4
    threshold: Number = Fraction(4, 3)
    source: Tuple[float, float] = (1.0, 1.0)
    fixture: str = "none"
    allow_critical: bool = False
    # output
    out_dir: str = "out"

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, (int, float, Fraction)) and not _finite(x):
                    raise ConfigError(f"{field.name} must be finite, got {value}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; "
                              f"expected one of {KINDS}")
        if self.domain not in DOMAINS:
            raise ConfigError(f"unknown domain {self.domain!r}; "
                              f"expected one of {DOMAINS}")
        if self.fixture not in ("none", "manufactured"):
            raise ConfigError(f"unknown fixture {self.fixture!r}")
        if self.fixture == "manufactured" and self.domain != "square":
            raise ConfigError("the manufactured fixture lives on the square domain")
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if not (0 < self.h_coarse <= 1):
            raise ConfigError(f"h_coarse must be in (0, 1], got {self.h_coarse}")
        if self.window is not None:
            a, b = self.window
            if not a < b:
                raise ConfigError(f"window must be increasing, got {self.window}")
            # in floats, as the eigen runners hand them to the solver
            if self.shift is not None and not float(a) <= float(self.shift) <= float(b):
                raise ConfigError(f"shift {self.shift} outside window {self.window}")
        try:
            self.material()
        except mats.MaterialError as exc:
            raise ConfigError(str(exc)) from exc
        if self.lam is not None and not self.allow_critical:
            if not mats.lambda_admissible(self.material(), self.windows(), self.lam):
                raise ConfigError(
                    f"lam = {self.lam} is inadmissible for this material "
                    f"(pole or critical window); pass allow_critical for a "
                    f"declared negative control")

    def material(self) -> mats.DrudeMaterial:
        return mats.DrudeMaterial(
            mu_plus=self.mu_plus, mu_minus=self.mu_minus,
            eps_plus=self.eps_plus, eps_minus=self.eps_minus,
            omega_mu_sq=self.omega_mu_sq, omega_eps_sq=self.omega_eps_sq)

    def domain_spec(self) -> Optional[DomainSpec]:
        """The reference domain, or None for the square fixture domain."""
        if self.domain == "square":
            return None
        return make_reference_domain(patch_radius=self.patch_radius)

    def windows(self) -> mats.CriticalWindows:
        """Critical lambda-windows for this material on this domain.

        The square fixture has a straight (or absent) interface; I_alpha = 1
        collapses each window to the single contrast value -1.
        """
        spec = self.domain_spec()
        i_alpha = mats.critical_interval(spec) if spec is not None else Fraction(1)
        return mats.critical_lambda_windows(self.material(), i_alpha)


def _finite(x: Number) -> bool:
    """Whether x is finite as the float the solvers get: not inf or nan, and
    no int or fraction beyond the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _coerce_number(raw: str) -> Number:
    s = raw.strip()
    try:
        if "/" in s:
            return Fraction(s)
        if s.lstrip("+-").isdigit():
            return int(s)
        return float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad numeric value {raw!r}") from exc


def _coerce_pair(raw: str) -> Tuple[Number, Number]:
    parts = raw.split(",")
    if len(parts) != 2 or not all(p.strip() for p in parts):
        raise ConfigError(f"expected a pair 'a,b', got {raw!r}")
    return (_coerce_number(parts[0]), _coerce_number(parts[1]))


def _coerce_bool(raw: str) -> bool:
    s = raw.strip().lower()
    if s in ("true", "yes", "on", "1"):
        return True
    if s in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"bad boolean value {raw!r}")


# (section, key) -> (config field, coercion)
_SCHEMA = {
    ("domain", "kind"): ("domain", str.strip),
    ("domain", "patch_radius"): ("patch_radius", lambda s: float(_coerce_number(s))),
    ("domain", "h_coarse"): ("h_coarse", lambda s: float(_coerce_number(s))),
    ("material", "mu_plus"): ("mu_plus", _coerce_number),
    ("material", "mu_minus"): ("mu_minus", _coerce_number),
    ("material", "eps_plus"): ("eps_plus", _coerce_number),
    ("material", "eps_minus"): ("eps_minus", _coerce_number),
    ("material", "omega_mu_sq"): ("omega_mu_sq", _coerce_number),
    ("material", "omega_eps_sq"): ("omega_eps_sq", _coerce_number),
    ("experiment", "kind"): ("kind", str.strip),
    ("experiment", "lam"): ("lam", _coerce_number),
    ("experiment", "window"): ("window", _coerce_pair),
    ("experiment", "shift"): ("shift", _coerce_number),
    ("experiment", "levels"): ("levels", lambda s: int(s.strip())),
    ("experiment", "threshold"): ("threshold", _coerce_number),
    ("experiment", "source"): ("source", lambda s: tuple(map(float, _coerce_pair(s)))),
    ("experiment", "fixture"): ("fixture", str.strip),
    ("experiment", "allow_critical"): ("allow_critical", _coerce_bool),
    ("output", "dir"): ("out_dir", str.strip),
}


def read_key(section: str, key: str, raw: str):
    """(field, value) that key KEY of [SECTION] reads from the text RAW, for
    config files and the CLI flags that stand for keys."""
    try:
        field, coerce = _SCHEMA[(section, key)]
    except KeyError:
        raise ConfigError(f"unknown key {key!r} in [{section}]") from None
    try:
        return field, coerce(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse config text into an ExperimentConfig (validating on the way).

    Keyword overrides replace file values BEFORE validation, so a CLI flag
    like allow_critical can rescue a config that would not validate alone.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    fields = dict(read_key(section, key, raw) for section in parser.sections()
                  for key, raw in parser.items(section))
    fields.update(overrides)
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a config file; keyword overrides (CLI flags) replace file values."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(), **overrides)
