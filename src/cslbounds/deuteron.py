"""Deuteron relative-motion bound states and their dissociation spectrum.

A model is one record, BoundStateModel: its kind, the binding energy and,
for Hulthen, beta/kappa; kappa, beta and the norm are derived from them.
Wavefunctions are reduced radial functions u(r) = r R(r) with r in fm,
normalized so that int_0^inf u(r)^2 dr = 1. The dissociated final states
are free plane waves of the relative momentum k; no final-state
interaction is applied. Mean-square radii are returned in cm^2.

Both models are sums of exponentials, so the dipole radial integral and
the spectrum are evaluated in closed form, Hulthen's factored so that
nothing cancels as beta/kappa -> 1; <r^2> uses adaptive quadrature.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable

from .constants import CM2_PER_FM2, HBAR_C_MEV_FM, REDUCED_MASS_NP_MEV, in_float_range
from .grids import logspace
from .quadrature import QuadratureError, integrate_radial
from .records import Record, greater_than_one, one_of, positive

# Hulthen short-range scale beta in units of kappa
HULTHEN_BETA_OVER_KAPPA = 6.163


class ModelKind(str, enum.Enum):
    ZERO_RANGE = "zero-range"
    HULTHEN = "hulthen"


class BoundStateModel(Record):
    """Normalized reduced radial wavefunction of the deuteron ground state: its kind, binding
    energy E_B and, for Hulthen, beta/kappa. Derived once, never compared, hashed or printed:
    kappa_per_fm = sqrt(2 mu E_B)/(hbar c); beta_per_fm = beta/kappa * kappa, the Hulthen scale
    that makes u(0) = 0 (None for zero-range); and norm, in fm^-1/2, sqrt(2 kappa) for
    zero-range, sqrt(2 kappa beta (kappa + beta)) / (beta - kappa) for Hulthen. A model floats
    cannot hold raises an OverflowError naming it.
    """

    kind: ModelKind = one_of(ModelKind, ModelKind.ZERO_RANGE)
    binding_energy_mev: float = positive(2.224575)
    beta_over_kappa: float = greater_than_one(HULTHEN_BETA_OVER_KAPPA)   # read by Hulthen only

    def __post_init__(self) -> None:
        e_b, ratio = self.binding_energy_mev, self.beta_over_kappa
        kappa = in_float_range(
            f"binding wavenumber at binding energy {e_b!r} MeV",
            lambda: math.sqrt(2.0 * REDUCED_MASS_NP_MEV * e_b) / HBAR_C_MEV_FM,
        )
        beta, norm_sq = None, 2.0 * kappa
        if self.kind is ModelKind.HULTHEN:
            beta = ratio * kappa
            # an overflowing beta makes the quotient NaN, so this one check covers it
            norm_sq = in_float_range(
                f"Hulthen normalization at binding energy {e_b!r} MeV, beta/kappa {ratio!r}",
                lambda: 2.0 * kappa * beta * (kappa + beta) / (beta - kappa) ** 2,
            )
        self.__dict__.update(kappa_per_fm=kappa, beta_per_fm=beta, norm=math.sqrt(norm_sq))   # fm^-1, fm^-1, fm^-1/2

    def u(self, r_fm: float) -> float:
        """Reduced radial wavefunction at one radius r (fm)."""
        decay = math.exp(-self.kappa_per_fm * r_fm)
        if self.beta_per_fm is not None:
            decay -= math.exp(-self.beta_per_fm * r_fm)
        return self.norm * decay


def mean_square_radius(model: BoundStateModel) -> float:
    """<r^2> = int_0^inf r^2 u(r)^2 dr by adaptive quadrature, converted to cm^2. A QuadratureError where
    the integral comes out non-positive, as it does when every sample of u rounds to 0."""
    value, _ = integrate_radial(lambda r: r * r * model.u(r) ** 2)
    if not value > 0:
        e_b = model.binding_energy_mev
        raise QuadratureError(f"<r^2> at binding energy {e_b!r} MeV came out {value!r} fm^2, not positive")
    return value * CM2_PER_FM2


def dipole_radial_integral(model: BoundStateModel, k_per_fm: float) -> float:
    """Radial part of the dipole matrix element, int r^2 u(r) j_1(k r) dr.

    Exact for a sum of exponentials: int r^2 exp(-a r) j_1(k r) dr
    = 2k / (k^2 + a^2)^2 for each term. Hulthen's difference of two terms is
    factored with N (beta - kappa) = sqrt(2 kappa beta (kappa + beta)), so
    nothing cancels as beta/kappa -> 1; one quotient at a time, since the
    single denominator (k^2+kappa^2)^2 (k^2+beta^2)^2 underflows first.
    """
    if not (math.isfinite(k_per_fm) and k_per_fm >= 0):
        raise ValueError(f"k_per_fm must be finite and non-negative (got {k_per_fm!r})")
    k, kappa, beta = k_per_fm, model.kappa_per_fm, model.beta_per_fm
    if beta is None:
        return model.norm * (2.0 * k / (k**2 + kappa**2) ** 2)
    a, b = k**2 + kappa**2, k**2 + beta**2
    return math.sqrt(2.0 * kappa * beta * (kappa + beta)) * (beta + kappa) * (2.0 * k / a / b) * (1.0 / a + 1.0 / b)


def spectrum_densities(model: BoundStateModel, ks_per_fm: Iterable[float]) -> list[float]:
    """Momentum spectrum of the squared dipole matrix element at each k, in fm^3.

    density(k) = (2/pi) k^2 I(k)^2 with I the dipole radial integral, so the
    completeness sum rule int_0^inf density dk = <r^2> holds in fm^2.
    """
    outside = f"spectrum density at binding energy {model.binding_energy_mev!r} MeV is outside the float range"
    try:
        densities = [(2.0 / math.pi) * k**2 * dipole_radial_integral(model, k) ** 2 for k in ks_per_fm]
    except (OverflowError, ZeroDivisionError):   # a power overflows, or underflows to 0 in a denominator
        raise OverflowError(outside) from None
    if not all(map(math.isfinite, densities)):   # a product overflows to inf
        raise OverflowError(outside)
    return densities


def default_k_grid(model: BoundStateModel) -> list[float]:
    """200 log-spaced k from 0.01 to 20 kappa, spanning the spectrum's support."""
    kappa = model.kappa_per_fm
    return logspace(math.log10(0.01 * kappa), math.log10(20.0 * kappa), 200)
