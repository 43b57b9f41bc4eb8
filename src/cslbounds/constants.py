"""Physical constants and collapse-model parameters.

Unit conventions used throughout the package: lengths in cm, times in s,
energies in MeV. Nuclear-scale quantities (wavefunctions, momenta) are
handled in fm and converted at module boundaries via the factors below.
The collapse strength lambda/a^2 is a plain float in s^-1 cm^-2.
"""

from __future__ import annotations

import math
from typing import Callable

from .records import Record, greater_than_one, non_negative, positive

# Length conversions between the nuclear (fm) and collapse (cm) scales
CM_PER_FM = 1e-13
CM2_PER_FM2 = 1e-26

# Canonical GRW parameter point
GRW_LAMBDA_RATE = 1e-16      # collapse rate lambda (s^-1)
GRW_A_LENGTH = 1e-5          # localization length a (cm)
GRW_LAMBDA_OVER_A2 = 1e-6    # lambda/a^2 (s^-1 cm^-2)


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

    m_e_over_m_p: float = positive(1.0 / 1836.15267)       # electron/proton mass ratio
    m_n_over_m_p: float = greater_than_one(1.00137842)     # neutron/proton mass ratio
    hbar_c_mev_fm: float = positive(197.3270)              # hbar * c (MeV fm)
    reduced_mass_np_mev: float = positive(469.459)         # n-p reduced mass (MeV/c^2)
    seconds_per_day: float = positive(86400.0)
    seconds_per_year: float = positive(365.0 * 86400.0)    # 365-day year convention

    def __post_init__(self) -> None:
        if not math.isclose(self.seconds_per_year, 365.0 * self.seconds_per_day, rel_tol=1e-12):
            raise ValueError("seconds_per_year must equal 365 * seconds_per_day")


#: Default constants; reference values rounded to the precision the analysis needs.
CODATA = PhysicalConstants()


class CollapseParams(Record):
    """Collapse-model parameter set. The proton coupling is fixed at 1 and
    never stored; g_e and g_n are relative to it and may be left unset."""

    lambda_rate: float = positive()             # collapse rate lambda (s^-1)
    a_length: float = positive()                # localization length a (cm)
    g_e: float | None = non_negative(None)      # electron coupling
    g_n: float | None = non_negative(None)      # neutron coupling


def grw_defaults() -> CollapseParams:
    """Canonical GRW collapse parameters; couplings left for the caller."""
    return CollapseParams(lambda_rate=GRW_LAMBDA_RATE, a_length=GRW_A_LENGTH)


def lambda_over_a2(p: CollapseParams) -> float:
    """Collapse strength lambda/a^2 of a parameter set (s^-1 cm^-2), positive and finite."""
    lam, a = p.lambda_rate, p.a_length
    return in_float_range(f"lambda/a^2 for lambda = {lam!r} s^-1, a = {a!r} cm", lambda: lam / a**2)
