"""End-to-end constraint analysis.

Turns a counting experiment's observed and predicted neutron totals into a
one-sided limit on excess dissociations, inverts that limit into coupling
bounds across the lambda/a^2 parameter space, and attaches the theoretical
(sphere-visibility) floor and the experimental (conduction-electron
radiation) ceiling. Bounds and floors are plain floats: couplings relative
to the proton's, collapse strengths lambda/a^2 in s^-1 cm^-2. RunConfig, the
record of one run, holds every input; the pipeline reads nothing else.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from itertools import islice

from .constants import (
    DAYS_PER_YEAR,
    GRW_LAMBDA_OVER_A2,
    M_E_OVER_M_P,
    M_N_OVER_M_P,
    CollapseParams,
    grw_defaults,
    in_float_range,
)
from .deuteron import BoundStateModel, mean_square_radius
from .grids import linspace, logspace
from .rates import count_coefficient
from .records import Record, at_least_two, finite, flag, in_unit_interval, non_negative, positive
from .uncertainty import (
    AsymmetricValue,
    combine_quadrature,
    one_sided_upper_limit,
    scale,
    subtract,
)

# Upper limit on lambda/a^2 (s^-1 cm^-2) from conduction-electron radiation
# data; taken as an external input, not re-derived here.
RADIATION_CEILING = 2.5

# Half-width of |g_e - m_e/m_p| at GRW strength from low-background Ge ionization
# data, the window 0 <= g_e < 13 m_e/m_p; an external input, as the ceiling is.
GE_HALF_WIDTH_AT_GRW = 12.0 * M_E_OVER_M_P

# Reference mean-square radius (3e-13 cm)^2 behind the quoted count
# coefficient; models deviating beyond the tolerance trigger a warning.
R2_REFERENCE_CM2 = 9e-26
R2_SPREAD_TOLERANCE = 0.10


class ObservedCounts(Record):
    """Detected neutron events with separate statistical and systematic errors."""

    value: float = finite()
    stat_up: float = non_negative()
    stat_down: float = non_negative()
    syst_up: float = non_negative()
    syst_down: float = non_negative()


class ExperimentConfig(Record):
    """Live time, fiducial geometry, and counting inputs of the experiment."""

    live_time_days: float = positive()
    fiducial_radius_m: float = positive()
    deuteron_density_per_cc: float = positive()
    efficiency: float = in_unit_interval()
    observed: ObservedCounts
    ssm_rate_per_day: AsymmetricValue   # background prediction, neutrons/day

    @property
    def live_time_yr(self) -> float:
        days = self.live_time_days
        return in_float_range(f"live time of {days!r} days in years", lambda: days / DAYS_PER_YEAR)

    @property
    def fiducial_volume_kilotonne_m3(self) -> float:
        """Fiducial sphere volume in 10^3 m^3."""
        r = self.fiducial_radius_m
        return in_float_range(f"fiducial volume of radius {r!r} m", lambda: (4.0 * math.pi / 3.0) * r**3 / 1e3)


class SphereVisibilityConfig(Record):
    """A just-visible sphere whose superposition must collapse quickly.

    The collapse-time budget is collapse_margin * perception_time_s; the
    defaults put the conventional 0.1 s threshold in the margin.
    """

    diameter_cm: float = positive(4e-5)
    nucleon_count: float = positive(2e10)
    perception_time_s: float = positive(1.0)
    collapse_margin: float = positive(0.1)

    @property
    def time_budget_s(self) -> float:
        return self.collapse_margin * self.perception_time_s

    @property
    def volume_cm3(self) -> float:
        return math.pi / 6.0 * self.diameter_cm**3


class ScanGridError(ValueError):
    """A ScanSpec whose grid floats cannot keep strictly ascending."""


class ScanSpec(Record):
    """Grid over lambda/a^2 for exclusion scans. `grid` returns it strictly ascending, positive
    and finite, or raises a ScanGridError where floats cannot keep its points apart."""

    lo: float = positive(1e-10)
    hi: float = positive(RADIATION_CEILING)
    points: int = at_least_two(201)
    log_spacing: bool = flag(True)

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"scan range must satisfy 0 < lo < hi < inf (got lo={self.lo!r}, hi={self.hi!r})")

    def grid(self) -> list[float]:
        if self.log_spacing:
            grid = logspace(math.log10(self.lo), math.log10(self.hi), self.points)
        else:
            grid = linspace(self.lo, self.hi, self.points)
        if not all(map(operator.lt, grid, islice(grid, 1, None))):
            raise ScanGridError("points must be sorted ascending in lambda_over_a2")
        return grid


class RunConfig(Record):
    """One run of the analysis, the reference exposure at GRW strength by default. The model
    is declared last so that the config reader builds it after every other key."""

    collapse: CollapseParams = grw_defaults()
    experiment: ExperimentConfig = ExperimentConfig(
        live_time_days=254.2,
        fiducial_radius_m=5.5,
        deuteron_density_per_cc=(2.0 / 3.0) * 1e23,
        efficiency=0.40,
        observed=ObservedCounts(value=1344.2, stat_up=69.8, stat_down=69.0, syst_up=98.1, syst_down=96.8),
        ssm_rate_per_day=AsymmetricValue(central=13.0, err_up=2.6, err_down=2.08),
    )
    sphere: SphereVisibilityConfig = SphereVisibilityConfig()
    scan: ScanSpec = ScanSpec()
    n_sigma: float = non_negative(1.0)
    model: BoundStateModel = BoundStateModel()


class ExclusionCurve(Record):
    """Coupling bounds on a lambda/a^2 grid, held as the ScanSpec scanned and the neutron bound at GRW strength.

    The grid is derived from the spec once, as the tuple `lambda_over_a2`, never compared, hashed
    or printed. Bounds at the grid points are computed when read, through `scalings`.
    """

    scan: ScanSpec
    gn_bound_at_grw: float               # max |g_n - m_n/m_p| at GRW strength
    theoretical_floor: float             # s^-1 cm^-2

    def __post_init__(self) -> None:
        grid = self.__dict__["lambda_over_a2"] = tuple(self.scan.grid())   # s^-1 cm^-2
        # f falls along the grid, so the first point's bounds are the largest; GE_HALF_WIDTH_AT_GRW * f is finite
        _, f = next(self.scalings())
        if not math.isfinite(self.gn_bound_at_grw * f):
            raise OverflowError(f"exclusion curve overflowed: non-finite value at lambda/a^2 = {grid[0]!r} s^-1 cm^-2")
        if self.theoretical_floor > RADIATION_CEILING:
            raise ValueError("theoretical floor exceeds experimental ceiling")

    def scalings(self) -> Iterator[tuple[float, float]]:
        """(x, sqrt((lambda/a^2)_GRW / x)) at each grid point x, the factor from GRW strength to x."""
        return zip(self.lambda_over_a2, map(math.sqrt, map(GRW_LAMBDA_OVER_A2.__truediv__, self.lambda_over_a2)))


class AnalysisReport(Record):
    """Everything the full pipeline produces for one configuration."""

    n_expt: AsymmetricValue
    n_ssm: AsymmetricValue
    n_csl: AsymmetricValue
    n_limit: float
    n_sigma: float
    gn_bound_at_grw: float
    gn_bound_rounded: float       # rounded up to one significant digit
    ge_half_width_at_grw: float
    ge_upper_at_grw: float
    strength_ratio: float         # electron vs neutron fractional-width ratio
    curve: ExclusionCurve
    model_r2_cm2: float
    floor_regime: str
    warnings: tuple[str, ...] = ()


def net_csl_counts(
    e: ExperimentConfig,
) -> tuple[AsymmetricValue, AsymmetricValue, AsymmetricValue]:
    """(n_expt, n_ssm, n_csl): efficiency-corrected observed total, background
    prediction over the live time, and their difference."""
    obs = e.observed
    stat = AsymmetricValue(obs.value, obs.stat_up, obs.stat_down)
    syst = AsymmetricValue(obs.value, obs.syst_up, obs.syst_down)
    correction = in_float_range(f"efficiency correction 1/{e.efficiency!r}", lambda: 1.0 / e.efficiency)
    n_expt = scale(combine_quadrature(stat, syst), correction)
    n_ssm = scale(e.ssm_rate_per_day, e.live_time_days)
    n_csl = subtract(n_expt, n_ssm)
    return n_expt, n_ssm, n_csl


def round_up_one_significant(x: float) -> float:
    """Round a positive value up to one significant digit (0.0074 -> 0.008): the least float of a one-digit
    decimal that is not below x, subnormal x included; an OverflowError above 1e308, where there is none."""
    if x == 0.0:
        return 0.0
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"expected a non-negative finite value (got {x!r})")
    nearest = f"{x:.0e}"   # the one-digit decimal nearest to x, rounded exactly
    rounded = float(nearest)
    if rounded < x:
        digit, exponent = nearest.split("e")
        rounded = float(f"{int(digit) + 1}e{exponent}")
    if rounded == math.inf:
        raise OverflowError(f"{x!r} rounded up to one significant digit is outside the float range")
    return rounded


def neutron_coupling_bound(n_limit: float, run: RunConfig) -> float:
    """Invert a count limit into |g_n - m_n/m_p| at GRW strength over run's exposure, sqrt(n_limit / (coefficient T V));
    ExclusionCurve.scalings takes it to another lambda/a^2."""
    coefficient = count_coefficient(run)   # its OverflowError is reported before a negative count limit
    if n_limit < 0:
        raise ValueError(f"count limit must be non-negative (got {n_limit!r})")
    e = run.experiment
    live_time_yr, volume_kilotonne_m3 = e.live_time_yr, e.fiducial_volume_kilotonne_m3
    exposure = in_float_range(
        f"exposure of {live_time_yr!r} yr x {volume_kilotonne_m3!r} x 10^3 m^3 at coefficient {coefficient!r}",
        lambda: coefficient * live_time_yr * volume_kilotonne_m3,
    )
    bound = math.sqrt(n_limit / exposure)
    if not math.isfinite(bound):
        raise OverflowError(f"neutron coupling bound at count limit {n_limit!r}, exposure {exposure!r} overflowed")
    return bound


def visibility_floor_large_a(s: SphereVisibilityConfig) -> float:
    """Floor on lambda/a^2 when a is large compared to the sphere radius.

    Requiring [lambda N^2 d^2 / (4 a^2)]^-1 below the time budget gives
    lambda/a^2 > 4 / (N^2 d^2 budget).
    """
    return in_float_range(
        "large-a visibility floor of the sphere",
        lambda: 4.0 / (s.nucleon_count**2 * s.diameter_cm**2 * s.time_budget_s),
    )


def small_a_floor_coefficient(s: SphereVisibilityConfig) -> float:
    """Coefficient c such that the small-a floor is c / a^5 (s^-1 cm^3)."""
    return in_float_range(
        "small-a visibility floor coefficient of the sphere",
        lambda: s.volume_cm3 / (s.nucleon_count**2 * (4.0 * math.pi) ** 1.5 * s.time_budget_s),
    )


def visibility_floor_small_a(s: SphereVisibilityConfig, a_cm: float) -> float:
    """Floor on lambda/a^2 when a is small compared to the sphere radius.

    Requiring [lambda N^2 a^3 (4 pi)^(3/2) / V]^-1 below the time budget
    gives lambda/a^2 > V / (N^2 a^5 (4 pi)^(3/2) budget).
    """
    if a_cm <= 0:
        raise ValueError(f"a must be positive (got {a_cm!r})")
    c = small_a_floor_coefficient(s)
    return in_float_range(f"small-a visibility floor at a = {a_cm!r} cm", lambda: c / a_cm**5)


def theoretical_floor(s: SphereVisibilityConfig, a_cm: float) -> float:
    """Max of the two visibility floors evaluated at localization length a."""
    return max(visibility_floor_large_a(s), visibility_floor_small_a(s, a_cm))


def _floor_regime(s: SphereVisibilityConfig, a_cm: float, floor: float) -> str:
    """Which visibility floor is the theoretical floor at a; a tie is the large-a one, as in theoretical_floor."""
    half_d = 0.5 * s.diameter_cm
    side = "a > d/2" if a_cm > half_d else "a < d/2" if a_cm < half_d else "a = d/2"
    dominant = "small-a" if floor > visibility_floor_large_a(s) else "large-a"
    return f"{dominant} visibility constraint dominates at a={a_cm:g} cm ({side})"


def scan_exclusion(run: RunConfig) -> ExclusionCurve:
    """Coupling bounds of run on its lambda/a^2 grid with the floor at its a attached; the ceiling is
    RADIATION_CEILING.

    Both bounds scale exactly as sqrt((lambda/a^2)_GRW / ld), so the neutron bound is
    evaluated once, at the GRW strength; the curve scales it to a point when read.
    """
    _, _, n_csl = net_csl_counts(run.experiment)
    n_limit = one_sided_upper_limit(n_csl, run.n_sigma)
    return ExclusionCurve(
        scan=run.scan,
        gn_bound_at_grw=neutron_coupling_bound(n_limit, run),
        theoretical_floor=theoretical_floor(run.sphere, run.collapse.a_length),
    )


def run_full_analysis(run: RunConfig) -> AnalysisReport:
    """Compose the whole pipeline into a report on run at the GRW strength plus its scan."""
    n_sigma = run.n_sigma
    n_expt, n_ssm, n_csl = net_csl_counts(run.experiment)
    n_limit = one_sided_upper_limit(n_csl, n_sigma)
    r2_cm2 = mean_square_radius(run.model)
    gn = neutron_coupling_bound(n_limit, run)

    # fractional widths relative to the mass-proportional point
    ge_fraction = GE_HALF_WIDTH_AT_GRW / M_E_OVER_M_P
    gn_fraction = gn / M_N_OVER_M_P
    strength_ratio = ge_fraction / gn_fraction if gn_fraction > 0 else math.inf

    warnings = []
    r2_deviation = abs(r2_cm2 - R2_REFERENCE_CM2) / R2_REFERENCE_CM2
    if r2_deviation > R2_SPREAD_TOLERANCE:
        warnings.append(
            f"model <r^2> = {r2_cm2:.4e} cm^2 deviates by {r2_deviation:.0%} from the"
            f" (3e-13 cm)^2 = {R2_REFERENCE_CM2:.1e} cm^2 reference value; quoted count"
            " coefficients assume the reference"
        )

    curve = scan_exclusion(run)
    return AnalysisReport(
        n_expt=n_expt,
        n_ssm=n_ssm,
        n_csl=n_csl,
        n_limit=n_limit,
        n_sigma=n_sigma,
        gn_bound_at_grw=gn,
        gn_bound_rounded=round_up_one_significant(gn),
        ge_half_width_at_grw=GE_HALF_WIDTH_AT_GRW,
        ge_upper_at_grw=M_E_OVER_M_P + GE_HALF_WIDTH_AT_GRW,
        strength_ratio=strength_ratio,
        curve=curve,
        model_r2_cm2=r2_cm2,
        floor_regime=_floor_regime(run.sphere, run.collapse.a_length, curve.theoretical_floor),
        warnings=tuple(warnings),
    )
