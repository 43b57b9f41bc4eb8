"""An mpmath oracle of the counts, of the first-order rate law, (lambda / 2 a^2) ((g_n - m_n/m_p) /
(1 + m_n/m_p))^2 <r^2>, and of each number the package computes from them.

Each number is recomputed at 50 digits from the exact binary values of its float inputs: the config's
numbers, the constants.py floats, the package's own <r^2> and spectrum densities, and, for the bound, the
package's count limit. So the quadrature's error enters no budget, and the count algebra's only those of
the counts and the count limit; pi is exact. The analyze report's floors, ratio, rounded bound and curve points
take the package's bound and each point's lambda/a^2 as exact inputs. Each number must lie within a declared budget
of units in the last place (ulp) of the exact value. A difference, whose terms can cancel, is measured in ulp of its
largest term.
"""

import json
import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

import mpmath
from hypothesis import given, settings
from test_cli import near_default_documents, run_in_process

from cslbounds import (
    GRW_LAMBDA_OVER_A2,
    ModelKind,
    count_coefficient,
    default_k_grid,
    deuteron_rate,
    deuteron_spectra,
    expected_count,
    mean_square_radius,
    net_csl_counts,
    one_sided_upper_limit,
    parse_config,
    run_full_analysis,
    spectrum_densities,
    visibility_floor_large_a,
    visibility_floor_small_a,
)
from cslbounds.constants import CM2_PER_FM2, DAYS_PER_YEAR, M_E_OVER_M_P, M_N_OVER_M_P, SECONDS_PER_YEAR
from cslbounds.rates import CC_PER_KILOTONNE_M3

MP = mpmath.MPContext()
MP.dps = 50

# The most ulp each number may lie from exact. A number that rounds n times, counting a rounding once per
# power it enters with, can lie n ulp away; the worst seen, over 2000 documents under each model kind, lies
# well inside that, and each budget is about 1.5 times it: (worst seen, roundings). The analyze report's numbers
# below n_limit's were seen over the 2474 analyses that ran of 2000 documents under both kinds.
BUDGETS = {
    "n_expt.central": 1.6,         # (1.09, 2)
    "n_expt.err_up": 2.2,          # (1.46, 3)
    "n_expt.err_down": 2.4,        # (1.59, 3)
    "n_ssm.central": 0.75,         # (0.50, 1)
    "n_ssm.err_up": 0.75,          # (0.50, 1)
    "n_ssm.err_down": 0.75,        # (0.50, 1)
    "n_csl.central": 2.1,          # (1.42, 4), in ulp of its largest term
    "n_csl.err_up": 2.4,           # (1.60, 5)
    "n_csl.err_down": 2.2,         # (1.48, 5)
    "n_limit": 3.0,                # (2.01, 11), in ulp of its largest term
    "count_coefficient": 4.0,      # (2.4, 10)
    "gn_bound_at_grw": 3.0,        # (1.9, about 10)
    "predicted_csl_counts": 6.0,   # (3.8, about 26)
    "deuteron_rate": 4.0,          # (2.8, 11)
    "deuteron_spectra": 6.0,       # (4.1, 12)
    "visibility_floor_large_a": 2.7,   # (1.81, 6)
    "visibility_floor_small_a": 4.6,   # (3.07, about 11)
    "theoretical_floor": 4.6,          # (3.07, either floor's)
    "strength_ratio": 1.6,             # (1.08, 3)
    "ge_upper_at_grw": 0.5,            # (0.00, 2): one constant, correctly rounded
    "gn_bound_rounded": 0.0,           # (0.00, 0): the rounding rule, exactly
    "curve.gn_bound": 2.6,             # (1.72, 3)
    "curve.ge_bound": 2.4,             # (1.61, 4)
}


def ulps(value, exact, largest=None):
    """Signed distance of the float value from exact, in ulp of the float nearest exact, or nearest largest."""
    return float((MP.mpf(value) - exact) / MP.mpf(math.ulp(float(exact if largest is None else largest))))


def law(strength, deviation):
    """(lambda / 2 a^2) w at strength lambda/a^2 and deviation g_n - m_n/m_p, exactly."""
    return strength / 2 * (deviation / (1 + MP.mpf(M_N_OVER_M_P))) ** 2


def oracle_ulps(run):
    """(quantity, ulp from exact) for each number of the law the package computes for run."""
    e, model, collapse = run.experiment, run.model, run.collapse
    x = MP.mpf
    r2_cm2 = mean_square_radius(model)
    deuterons_per_unit_volume = x(e.deuteron_density_per_cc) * x(CC_PER_KILOTONNE_M3)
    coefficient = law(x(GRW_LAMBDA_OVER_A2), 1) * x(r2_cm2) * deuterons_per_unit_volume * x(SECONDS_PER_YEAR)
    live_time_yr = x(e.live_time_days) / x(DAYS_PER_YEAR)
    volume = 4 * MP.pi / 3 * x(e.fiducial_radius_m) ** 3 / 1000
    yield "count_coefficient", ulps(count_coefficient(run), coefficient)
    try:
        report = run_full_analysis(run)
    except ValueError:   # a downward fluctuation, or a floor above the ceiling: no bound to check
        pass
    else:
        exact = MP.sqrt(x(report.n_limit) / (coefficient * live_time_yr * volume))
        yield "gn_bound_at_grw", ulps(report.gn_bound_at_grw, exact)
    if collapse.g_n is None:
        return
    strength = x(collapse.lambda_rate) / x(collapse.a_length) ** 2
    deviation = x(collapse.g_n) - x(M_N_OVER_M_P)
    predicted = expected_count(run)
    exact = coefficient * strength / x(GRW_LAMBDA_OVER_A2) * deviation**2 * live_time_yr * volume
    yield "predicted_csl_counts", ulps(predicted, exact)
    yield "deuteron_rate", ulps(deuteron_rate(collapse, model), law(strength, deviation) * x(r2_cm2))
    ks = default_k_grid(model)
    for rate, density in zip(deuteron_spectra(collapse, model, ks), spectrum_densities(model, ks)):
        yield "deuteron_spectra", ulps(rate, law(strength, deviation) * x(density) * x(CM2_PER_FM2))


def count_ulps(run):
    """(quantity, ulp from exact) for each count of the analysis, with both its errors, and the count limit."""
    e, x = run.experiment, MP.mpf
    obs, ssm, days = e.observed, e.ssm_rate_per_day, x(e.live_time_days)
    expt = [x(obs.value), MP.hypot(x(obs.stat_up), x(obs.syst_up)), MP.hypot(x(obs.stat_down), x(obs.syst_down))]
    expt = [count / x(e.efficiency) for count in expt]
    ssm = [x(count) * days for count in ssm._values()]
    # n_ssm enters n_csl negatively, so its error sides swap
    csl = [expt[0] - ssm[0], MP.hypot(expt[1], ssm[2]), MP.hypot(expt[2], ssm[1])]
    limit_terms = [expt[0], -ssm[0], x(run.n_sigma) * csl[1]]
    largest = {"n_csl.central": max(abs(expt[0]), abs(ssm[0]))}   # of each difference
    n_expt, n_ssm, n_csl = net_csl_counts(e)
    for name, value, exact in [("n_expt", n_expt, expt), ("n_ssm", n_ssm, ssm), ("n_csl", n_csl, csl)]:
        for field, got, want in zip(value._fields, value._values(), exact):
            yield f"{name}.{field}", ulps(got, want, largest.get(f"{name}.{field}"))
    n_limit = one_sided_upper_limit(n_csl, run.n_sigma)
    yield "n_limit", ulps(n_limit, MP.fsum(limit_terms), max(map(abs, limit_terms)))


def rounded_up_one_digit(value):
    """The least float of a one-digit decimal that is not below value, in decimal: value itself where the one-digit
    decimal just below it rounds to it, else the float of the one-digit decimal just above it."""
    below = Context(prec=1, rounding=ROUND_FLOOR).plus(Decimal(value))
    return value if float(below) == value else float(Context(prec=1, rounding=ROUND_CEILING).plus(Decimal(value)))


def analyze_ulps(run, data):
    """(quantity, ulp from exact) for each number of run's structured analyze report data that does not depend on
    the quadrature's <r^2>, with the report's gn_bound_at_grw and each point's lambda/a^2 taken as exact."""
    s, x = run.sphere, MP.mpf
    budget_s = x(s.collapse_margin) * x(s.perception_time_s)
    large_a = 4 / (x(s.nucleon_count) ** 2 * x(s.diameter_cm) ** 2 * budget_s)
    volume = MP.pi / 6 * x(s.diameter_cm) ** 3
    small_a = volume / (x(s.nucleon_count) ** 2 * (4 * MP.pi) ** 1.5 * budget_s) / x(run.collapse.a_length) ** 5
    yield "visibility_floor_large_a", ulps(visibility_floor_large_a(s), large_a)
    yield "visibility_floor_small_a", ulps(visibility_floor_small_a(s, run.collapse.a_length), small_a)
    bounds, curve = data["bounds"], data["curve"]
    yield "theoretical_floor", ulps(curve["theoretical_floor"], max(large_a, small_a))
    gn, ge = bounds["gn_bound_at_grw"], 12 * x(M_E_OVER_M_P)   # GE_HALF_WIDTH_AT_GRW is 12 m_e/m_p
    if gn > 0:   # else the ratio is unbounded, null
        yield "strength_ratio", ulps(bounds["strength_ratio"], 12 * x(M_N_OVER_M_P) / x(gn))
    yield "ge_upper_at_grw", ulps(bounds["ge_upper_at_grw"], 13 * x(M_E_OVER_M_P))
    yield "gn_bound_rounded", ulps(bounds["gn_bound_rounded"], rounded_up_one_digit(gn))
    for point in curve["points"]:
        f = MP.sqrt(x(GRW_LAMBDA_OVER_A2) / x(point["lambda_over_a2"]))
        yield "curve.gn_bound", ulps(point["gn_bound"], x(gn) * f)
        yield "curve.ge_bound", ulps(point["ge_bound"], ge * f)


def kind_documents(doc):
    """doc as JSON under each model kind."""
    return (json.dumps({**doc, "model": {**doc["model"], "kind": kind.value}}) for kind in ModelKind)


def runs_of(doc):
    """The run of doc under each model kind whose model floats can hold."""
    for document in kind_documents(doc):
        try:
            yield parse_config(document)
        except (ValueError, OverflowError):   # beta/kappa moved to 1 or below, say
            continue


@settings(max_examples=100, deadline=None)
@given(doc=near_default_documents())
def test_each_number_of_the_rate_law_is_within_its_ulp_budget(doc):
    for run in runs_of(doc):
        for name, distance in oracle_ulps(run):
            assert abs(distance) <= BUDGETS[name], (name, distance, run.model.kind)


@settings(max_examples=100, deadline=None)
@given(doc=near_default_documents())
def test_each_count_and_the_count_limit_are_within_their_ulp_budgets(doc):
    for run in runs_of(doc):
        for name, distance in count_ulps(run):
            assert abs(distance) <= BUDGETS[name], (name, distance)


@settings(max_examples=100, deadline=None)
@given(doc=near_default_documents())
def test_each_number_of_the_floors_the_ratio_and_the_curve_is_within_its_ulp_budget(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "oracle.json"
    for document in kind_documents(doc):
        path.write_text(document)
        code, out, _ = run_in_process("analyze", "--format", "structured", "--config", str(path))
        if code:   # a model floats cannot hold, or no bound to check
            continue
        for name, distance in analyze_ulps(parse_config(document), json.loads(out)):
            assert abs(distance) <= BUDGETS[name], (name, distance)
