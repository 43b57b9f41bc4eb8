"""Deuteron relative-motion bound states and their dissociation spectrum.

Wavefunctions are reduced radial functions u(r) = r R(r) with r in fm,
normalized so that int_0^inf u(r)^2 dr = 1. The dissociated final states
are free plane waves of the relative momentum k; no final-state
interaction is applied. Mean-square radii are returned in cm^2.

Both models are sums of exponentials, so the dipole radial integral and
the spectrum are evaluated in closed form; <r^2> uses adaptive quadrature.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable

from .constants import CM2_PER_FM2, CODATA, in_float_range
from .grids import logspace
from .quadrature import integrate_radial
from .records import Record, non_negative, positive

# Hulthen short-range scale beta in units of kappa
HULTHEN_BETA_OVER_KAPPA = 6.163


class ModelKind(str, enum.Enum):
    ZERO_RANGE = "zero-range"
    HULTHEN = "hulthen"


class BoundStateModel(Record):
    """Normalized reduced radial wavefunction of the deuteron ground state.

    kappa is the asymptotic decay constant sqrt(2 mu E_B)/(hbar c); the
    Hulthen form adds a short-range scale beta > kappa that makes u(0) = 0.
    """

    kind: ModelKind
    kappa_per_fm: float = positive()   # fm^-1
    norm: float = positive()           # fm^-1/2, analytic normalization
    binding_energy_mev: float
    beta_per_fm: float | None = None   # fm^-1, Hulthen only

    def __post_init__(self) -> None:
        if self.kind is ModelKind.HULTHEN:
            beta = self.beta_per_fm
            if beta is None or not (math.isfinite(beta) and beta > self.kappa_per_fm):
                raise ValueError(f"Hulthen model requires finite beta > kappa (got beta={beta!r})")
        elif self.beta_per_fm is not None:
            raise ValueError("beta is only meaningful for the Hulthen model")

    def u(self, r_fm: float) -> float:
        """Reduced radial wavefunction at one radius r (fm)."""
        return self.norm * sum(c * math.exp(-a * r_fm) for c, a in _exponential_terms(self))


def _exponential_terms(model: BoundStateModel) -> tuple[tuple[float, float], ...]:
    """(coefficient, decay in fm^-1) pairs with u(r) = norm * sum c exp(-decay r).

    The coefficients are +-1 and the norm is applied once outside the sum,
    so multiplying by a coefficient never rounds.
    """
    if model.kind is ModelKind.ZERO_RANGE:
        return ((1.0, model.kappa_per_fm),)
    return ((1.0, model.kappa_per_fm), (-1.0, model.beta_per_fm))


class SpectrumDensity(Record):
    """k-resolved integrand of <r^2> over the final-state momentum."""

    k_per_fm: float = non_negative()
    density_fm3: float = non_negative()


def binding_wavenumber(binding_energy_mev: float) -> float:
    """kappa = sqrt(2 mu E_B)/(hbar c) in fm^-1."""
    if not (math.isfinite(binding_energy_mev) and binding_energy_mev > 0):
        raise ValueError(f"binding energy must be positive (got {binding_energy_mev!r})")
    return math.sqrt(2.0 * CODATA.reduced_mass_np_mev * binding_energy_mev) / CODATA.hbar_c_mev_fm


def build_zero_range(binding_energy_mev: float) -> BoundStateModel:
    """Zero-range model u(r) = sqrt(2 kappa) exp(-kappa r)."""
    kappa = binding_wavenumber(binding_energy_mev)
    return BoundStateModel(
        kind=ModelKind.ZERO_RANGE,
        kappa_per_fm=kappa,
        norm=math.sqrt(2.0 * kappa),
        binding_energy_mev=binding_energy_mev,
    )


def build_hulthen(
    binding_energy_mev: float, beta_over_kappa: float = HULTHEN_BETA_OVER_KAPPA
) -> BoundStateModel:
    """Hulthen model u(r) = N (exp(-kappa r) - exp(-beta r)).

    N^2 = 2 kappa beta (kappa + beta) / (beta - kappa)^2 from the closed-form
    exponential integrals. beta/kappa must exceed 1 so u vanishes at the
    origin with the correct sign.
    """
    if not (math.isfinite(beta_over_kappa) and beta_over_kappa > 1.0):
        raise ValueError(f"beta_over_kappa must exceed 1 (got {beta_over_kappa!r})")
    kappa = binding_wavenumber(binding_energy_mev)
    beta = beta_over_kappa * kappa
    norm_sq = in_float_range(
        f"Hulthen normalization at binding energy {binding_energy_mev!r} MeV, beta/kappa {beta_over_kappa!r}",
        lambda: 2.0 * kappa * beta * (kappa + beta) / (beta - kappa) ** 2,
    )
    return BoundStateModel(
        kind=ModelKind.HULTHEN,
        kappa_per_fm=kappa,
        norm=math.sqrt(norm_sq),
        binding_energy_mev=binding_energy_mev,
        beta_per_fm=beta,
    )


def mean_square_radius(model: BoundStateModel) -> float:
    """<r^2> = int_0^inf r^2 u(r)^2 dr by adaptive quadrature, converted to cm^2."""
    value, _ = integrate_radial(lambda r: r * r * model.u(r) ** 2)
    return value * CM2_PER_FM2


def dipole_radial_integral(model: BoundStateModel, k_per_fm: float) -> float:
    """Radial part of the dipole matrix element, int r^2 u(r) j_1(k r) dr.

    Exact for a sum of exponentials: int r^2 exp(-a r) j_1(k r) dr
    = 2k / (k^2 + a^2)^2 for each term.
    """
    if not (math.isfinite(k_per_fm) and k_per_fm >= 0):
        raise ValueError(f"k_per_fm must be finite and non-negative (got {k_per_fm!r})")
    terms = _exponential_terms(model)
    return model.norm * sum(c * 2.0 * k_per_fm / (k_per_fm**2 + a**2) ** 2 for c, a in terms)


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


def spectrum_density(model: BoundStateModel, k_per_fm: float) -> SpectrumDensity:
    """The spectrum density at one k, as a checked record."""
    (density,) = spectrum_densities(model, (k_per_fm,))
    return SpectrumDensity(k_per_fm=k_per_fm, density_fm3=density)


def default_k_grid(model: BoundStateModel) -> list[float]:
    """200 log-spaced k from 0.01 to 20 kappa, spanning the spectrum's support."""
    kappa = model.kappa_per_fm
    return logspace(math.log10(0.01 * kappa), math.log10(20.0 * kappa), 200)
