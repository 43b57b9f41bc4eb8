"""Physical constants and collapse-model parameters.

Unit conventions used throughout the package: lengths in cm, times in s,
energies in MeV. Nuclear-scale quantities (wavefunctions, momenta) are
handled in fm and converted at module boundaries via the factor below.
The collapse strength lambda/a^2 is a plain float in s^-1 cm^-2.
"""

from __future__ import annotations

import math
from typing import Callable

from .records import Record, non_negative, positive

# Area conversion between the nuclear (fm^2) and collapse (cm^2) scales
CM2_PER_FM2 = 1e-26

# Canonical GRW parameter point
GRW_LAMBDA_RATE = 1e-16      # collapse rate lambda (s^-1)
GRW_A_LENGTH = 1e-5          # localization length a (cm)
GRW_LAMBDA_OVER_A2 = 1e-6    # lambda/a^2 (s^-1 cm^-2)

# Mass ratios and conversion constants of the deuteron analysis, rounded to
# the precision it needs; fixed, so no config key, flag or argument sets them
M_E_OVER_M_P = 1.0 / 1836.15267     # electron/proton mass ratio
M_N_OVER_M_P = 1.00137842           # neutron/proton mass ratio
HBAR_C_MEV_FM = 197.3270            # hbar * c (MeV fm)
REDUCED_MASS_NP_MEV = 469.459       # n-p reduced mass (MeV/c^2)
SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.0 * SECONDS_PER_DAY   # 365-day year convention
DAYS_PER_YEAR = SECONDS_PER_YEAR / SECONDS_PER_DAY


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
