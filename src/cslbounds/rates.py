"""First-order collapse-induced excitation rates and expected event counts.

The general rate is (lambda / 2 a^2) |<phi| sum g_alpha r_alpha |psi>|^2,
to first order in (bound-state size / a). For the deuteron the
fixed-center-of-mass constraint reduces the operator to the relative
coordinate with squared weight w = ((g_n - m_n/m_p) / (1 + m_n/m_p))^2,
so the rate is (lambda / 2 a^2) w <r^2>, the law _rate_law states once.
w is zero at mass-proportional coupling, and so is this first-order rate;
the rate to all orders is not zero there but of order lambda x^4, with
x = sqrt(<r^2>) / a. The electron contribution is neglected.

Rates and counts are plain floats; one that floats cannot hold raises an
OverflowError naming the coupling it was computed at.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import TYPE_CHECKING

from .constants import (
    CM2_PER_FM2,
    GRW_LAMBDA_OVER_A2,
    M_N_OVER_M_P,
    SECONDS_PER_YEAR,
    CollapseParams,
    in_float_range,
    lambda_over_a2,
)
from .deuteron import BoundStateModel, mean_square_radius, spectrum_densities

if TYPE_CHECKING:   # limits imports this module
    from .limits import RunConfig

# 10^3 m^3 expressed in cm^3
CC_PER_KILOTONNE_M3 = 1e9


def _require_gn(p: CollapseParams) -> float:
    if p.g_n is None:
        raise ValueError("collapse parameters must have g_n set for deuteron rates")
    return p.g_n


def _rate_law(strength: float, deviation: float) -> float:
    """(lambda / 2 a^2) w at collapse strength lambda/a^2 (s^-1 cm^-2) and deviation g_n - m_n/m_p: the
    rate per deuteron per cm^2 of <r^2> or of squared dipole, in s^-1 cm^-2; inf where w overflows."""
    try:
        return 0.5 * strength * (deviation / (1.0 + M_N_OVER_M_P)) ** 2
    except OverflowError:   # the weight's square
        return math.inf


def _rate_prefactor(p: CollapseParams) -> float:
    """The law at p's strength and coupling."""
    g_n = _require_gn(p)
    return _rate_law(lambda_over_a2(p), g_n - M_N_OVER_M_P)


def _finite_rates(p: CollapseParams, rates: list[float]) -> list[float]:
    if not all(map(math.isfinite, rates)):
        raise OverflowError(f"dissociation rate at g_n = {p.g_n!r}, lambda/a^2 = {lambda_over_a2(p)!r} s^-1 cm^-2 overflowed")
    return rates


def deuteron_rate(p: CollapseParams, model: BoundStateModel) -> float:
    """Total dissociation rate per deuteron in s^-1, integrated over final momenta."""
    (rate,) = _finite_rates(p, [_rate_prefactor(p) * mean_square_radius(model)])
    return rate


def deuteron_spectra(p: CollapseParams, model: BoundStateModel, ks_per_fm: Iterable[float]) -> list[float]:
    """Differential dissociation rate dR/dk in s^-1 per fm^-1 at each k.

    Integrating over k reproduces deuteron_rate by the completeness sum rule. Every rate
    is zero for mass-proportional g_n, where the first-order law vanishes; the rate to all
    orders does not (see the module docstring).
    """
    prefactor = _rate_prefactor(p)
    return _finite_rates(p, [prefactor * density * CM2_PER_FM2 for density in spectrum_densities(model, ks_per_fm)])


def count_coefficient(run: RunConfig) -> float:
    """Counts per unit coupling deviation squared per (yr x 10^3 m^3) at GRW strength, for run's model and density."""
    r2_cm2 = mean_square_radius(run.model)
    deuterons_per_unit_volume = run.experiment.deuteron_density_per_cc * CC_PER_KILOTONNE_M3
    return in_float_range(
        f"count coefficient for <r^2> = {r2_cm2!r} cm^2",
        lambda: _rate_law(GRW_LAMBDA_OVER_A2, 1.0) * r2_cm2 * deuterons_per_unit_volume * SECONDS_PER_YEAR,
    )


def expected_count(run: RunConfig) -> float:
    """Expected number of collapse-induced dissociations over run's live exposure at its collapse parameters.

    N = coefficient * (lambda/a^2)/(lambda/a^2)_GRW * (g_n - m_n/m_p)^2 * T * V
    with T in years and V in 10^3 m^3.
    """
    p, e = run.collapse, run.experiment
    g_n = _require_gn(p)
    coefficient = count_coefficient(run)
    strength_ratio = lambda_over_a2(p) / GRW_LAMBDA_OVER_A2
    deviation = g_n - M_N_OVER_M_P
    expected = coefficient * strength_ratio * deviation * deviation * e.live_time_yr * e.fiducial_volume_kilotonne_m3
    if not math.isfinite(expected):   # 0 is a valid count, so not in_float_range
        raise OverflowError(f"expected count at g_n = {g_n!r} overflowed")
    return expected
