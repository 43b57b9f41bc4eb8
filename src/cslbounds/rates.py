"""First-order collapse-induced excitation rates and expected event counts.

The general rate is (lambda / 2 a^2) |<phi| sum g_alpha r_alpha |psi>|^2.
For the deuteron the fixed-center-of-mass constraint reduces the operator
to the relative coordinate with squared weight
((g_n - m_n/m_p) / (1 + m_n/m_p))^2, which vanishes identically for
mass-proportional coupling. The electron contribution is neglected.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .constants import (
    CM2_PER_FM2,
    CODATA,
    GRW_LAMBDA_OVER_A2,
    CollapseParams,
    in_float_range,
    lambda_over_a2,
)
from .deuteron import BoundStateModel, mean_square_radius, spectrum_densities
from .records import Record, non_negative, positive

# 10^3 m^3 expressed in cm^3
CC_PER_KILOTONNE_M3 = 1e9


class MatrixElementSq(Record):
    """Squared magnitude of the weighted dipole matrix element (cm^2)."""

    value_cm2: float = non_negative()


class ExcitationRate(Record):
    """Excitation probability per second for one bound state."""

    per_second: float = non_negative()


class CountPrediction(Record):
    """Expected dissociation count and the normalized count coefficient.

    coefficient is the count at unit coupling deviation per (yr x 10^3 m^3)
    of live exposure at the GRW collapse strength.
    """

    expected_neutrons: float = non_negative()
    coefficient: float = positive()


def general_rate(p: CollapseParams, me: MatrixElementSq) -> ExcitationRate:
    """First-order excitation rate (lambda / 2 a^2) |M|^2.

    The next order in (bound-state size / a) is dropped; it is far below
    any observable level for nuclear bound states.
    """
    return ExcitationRate(0.5 * lambda_over_a2(p).lambda_over_a2 * me.value_cm2)


def com_reduction_coefficients() -> tuple[float, float]:
    """(c_p, c_n) such that r_p = c_p r and r_n = c_n r for the deuteron.

    Follows from fixing the mass-weighted center of mass at the origin,
    which ties r_p = -(m_n/m_p) r_n, with r = r_p - r_n the relative
    coordinate.
    """
    ratio = CODATA.m_n_over_m_p
    return ratio / (1.0 + ratio), -1.0 / (1.0 + ratio)


def relative_coupling_weight(g_n: float) -> float:
    """Squared relative-coordinate weight ((g_n - m_n/m_p)/(1 + m_n/m_p))^2."""
    return ((g_n - CODATA.m_n_over_m_p) / (1.0 + CODATA.m_n_over_m_p)) ** 2


def _require_gn(p: CollapseParams) -> float:
    if p.g_n is None:
        raise ValueError("collapse parameters must have g_n set for deuteron rates")
    return p.g_n


def deuteron_rate(p: CollapseParams, model: BoundStateModel) -> ExcitationRate:
    """Total dissociation rate per deuteron, integrated over final momenta."""
    g_n = _require_gn(p)
    r2_cm2 = mean_square_radius(model)
    return general_rate(p, MatrixElementSq(relative_coupling_weight(g_n) * r2_cm2))


def deuteron_spectra(p: CollapseParams, model: BoundStateModel, ks_per_fm: Iterable[float]) -> list[float]:
    """Differential dissociation rate dR/dk in s^-1 per fm^-1 at each k.

    Integrating over k reproduces deuteron_rate by the completeness sum rule. Every rate
    is zero for mass-proportional g_n.
    """
    g_n = _require_gn(p)
    strength = lambda_over_a2(p).lambda_over_a2
    try:
        scaling = 0.5 * strength * relative_coupling_weight(g_n)
    except OverflowError:   # the weight's square
        scaling = math.inf
    rates = [scaling * density * CM2_PER_FM2 for density in spectrum_densities(model, ks_per_fm)]
    if not all(map(math.isfinite, rates)):
        raise OverflowError(f"dissociation rate at g_n = {g_n!r}, lambda/a^2 = {strength!r} s^-1 cm^-2 overflowed")
    return rates


def deuteron_spectrum(p: CollapseParams, model: BoundStateModel, k_per_fm: float) -> float:
    """dR/dk at one k (s^-1 per fm^-1)."""
    (rate,) = deuteron_spectra(p, model, (k_per_fm,))
    return rate


def count_coefficient(model: BoundStateModel, deuteron_density_per_cc: float) -> float:
    """Counts per unit coupling deviation squared per (yr x 10^3 m^3) at GRW strength."""
    if not (math.isfinite(deuteron_density_per_cc) and deuteron_density_per_cc > 0):
        raise ValueError(f"deuteron density must be finite and positive (got {deuteron_density_per_cc!r})")
    r2_cm2 = mean_square_radius(model)
    unit_weight = com_reduction_coefficients()[1] ** 2   # |c_n|^2 at unit coupling deviation
    deuterons_per_unit_volume = deuteron_density_per_cc * CC_PER_KILOTONNE_M3
    return in_float_range(
        f"count coefficient for <r^2> = {r2_cm2!r} cm^2",
        lambda: 0.5
        * GRW_LAMBDA_OVER_A2
        * unit_weight
        * r2_cm2
        * deuterons_per_unit_volume
        * CODATA.seconds_per_year,
    )


def expected_count(
    p: CollapseParams,
    live_time_yr: float,
    volume_kilotonne_m3: float,
    deuteron_density_per_cc: float,
    model: BoundStateModel,
) -> CountPrediction:
    """Expected number of collapse-induced dissociations over a live exposure.

    N = coefficient * (lambda/a^2)/(lambda/a^2)_GRW * (g_n - m_n/m_p)^2 * T * V
    with T in years and V in 10^3 m^3.
    """
    if live_time_yr <= 0 or volume_kilotonne_m3 <= 0:
        raise ValueError("live time and volume must be positive")
    g_n = _require_gn(p)
    coefficient = count_coefficient(model, deuteron_density_per_cc)
    strength_ratio = lambda_over_a2(p).lambda_over_a2 / GRW_LAMBDA_OVER_A2
    deviation = g_n - CODATA.m_n_over_m_p
    expected = coefficient * strength_ratio * deviation * deviation * live_time_yr * volume_kilotonne_m3
    return CountPrediction(expected_neutrons=expected, coefficient=coefficient)
