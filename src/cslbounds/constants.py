"""Physical constants and collapse-model parameters.

Unit conventions used throughout the package: lengths in cm, times in s,
energies in MeV. Nuclear-scale quantities (wavefunctions, momenta) are
handled in fm and converted at module boundaries via the factors below.
"""

from __future__ import annotations

import math
from typing import Callable

from .records import Record

# Length conversions between the nuclear (fm) and collapse (cm) scales
CM_PER_FM = 1e-13
CM2_PER_FM2 = 1e-26

# Canonical GRW parameter point
GRW_LAMBDA_RATE = 1e-16      # collapse rate lambda (s^-1)
GRW_A_LENGTH = 1e-5          # localization length a (cm)
GRW_LAMBDA_OVER_A2 = 1e-6    # lambda/a^2 (s^-1 cm^-2)


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive (got {value!r})")


def in_float_range(what: str, compute: Callable[[], float]) -> float:
    """compute(), a quantity positive in exact arithmetic, or an OverflowError naming what
    when floats cannot hold it: a power or product that overflows to inf or underflows
    to 0, or a denominator that underflows to 0."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise OverflowError(f"{what} is outside the float range")
    return value


class PhysicalConstants(Record):
    """Mass ratios and conversion constants for the deuteron analysis."""

    m_e_over_m_p: float = 1.0 / 1836.15267   # electron/proton mass ratio
    m_n_over_m_p: float = 1.00137842         # neutron/proton mass ratio
    hbar_c_mev_fm: float = 197.3270          # hbar * c (MeV fm)
    reduced_mass_np_mev: float = 469.459     # n-p reduced mass (MeV/c^2)
    seconds_per_day: float = 86400.0
    seconds_per_year: float = 365.0 * 86400.0  # 365-day year convention

    def __post_init__(self) -> None:
        for name in (
            "m_e_over_m_p",
            "m_n_over_m_p",
            "hbar_c_mev_fm",
            "reduced_mass_np_mev",
            "seconds_per_day",
            "seconds_per_year",
        ):
            _require_positive(name, getattr(self, name))
        if self.m_n_over_m_p <= 1.0:
            raise ValueError("m_n_over_m_p must exceed 1")
        if not math.isclose(self.seconds_per_year, 365.0 * self.seconds_per_day, rel_tol=1e-12):
            raise ValueError("seconds_per_year must equal 365 * seconds_per_day")


#: Default constants; reference values rounded to the precision the analysis needs.
CODATA = PhysicalConstants()


class CollapseParams(Record):
    """Collapse-model parameter set. The proton coupling is fixed at 1 and
    never stored; g_e and g_n are relative to it and may be left unset."""

    lambda_rate: float          # collapse rate lambda (s^-1)
    a_length: float             # localization length a (cm)
    g_e: float | None = None    # electron coupling
    g_n: float | None = None    # neutron coupling

    def __post_init__(self) -> None:
        _require_positive("lambda_rate", self.lambda_rate)
        _require_positive("a_length", self.a_length)
        for name in ("g_e", "g_n"):
            g = getattr(self, name)
            if g is not None and not (math.isfinite(g) and g >= 0):
                raise ValueError(f"{name} must be finite and non-negative (got {g!r})")


class RateDensity(Record):
    """The composite collapse-strength parameter lambda/a^2 (s^-1 cm^-2)."""

    lambda_over_a2: float

    def __post_init__(self) -> None:
        _require_positive("lambda_over_a2", self.lambda_over_a2)


def grw_defaults() -> CollapseParams:
    """Canonical GRW collapse parameters; couplings left for the caller."""
    return CollapseParams(lambda_rate=GRW_LAMBDA_RATE, a_length=GRW_A_LENGTH)


def lambda_over_a2(p: CollapseParams) -> RateDensity:
    """Collapse strength lambda/a^2 of a parameter set."""
    return RateDensity(p.lambda_rate / p.a_length**2)
