import math

import numpy as np
import pytest

from cslbounds import (
    CODATA,
    GRW_LAMBDA_OVER_A2,
    RADIATION_CEILING,
    AsymmetricValue,
    ExclusionCurve,
    ExperimentConfig,
    ObservedCounts,
    RateDensity,
    ScanSpec,
    SphereVisibilityConfig,
    build_hulthen,
    build_zero_range,
    count_coefficient,
    electron_coupling_bound,
    expected_count,
    net_csl_counts,
    neutron_coupling_bound,
    one_sided_upper_limit,
    round_up_one_significant,
    run_full_analysis,
    scan_exclusion,
    small_a_floor_coefficient,
    theoretical_floor,
    visibility_floor_large_a,
    visibility_floor_small_a,
)
from cslbounds.constants import CollapseParams

EB_DEFAULT = 2.224575


def reference_experiment(**overrides):
    kwargs = dict(
        live_time_days=254.2,
        fiducial_radius_m=5.5,
        deuteron_density_per_cc=(2.0 / 3.0) * 1e23,
        efficiency=0.40,
        observed=ObservedCounts(1344.2, 69.8, 69.0, 98.1, 96.8),
        ssm_rate_per_day=AsymmetricValue(13.0, 2.6, 2.08),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def reference_sphere():
    return SphereVisibilityConfig()


def test_net_csl_counts_reference_pipeline():
    n_expt, n_ssm, n_csl = net_csl_counts(reference_experiment())
    assert n_expt.central == pytest.approx(3361, abs=2)
    assert n_expt.err_up == pytest.approx(300, abs=2)
    assert n_expt.err_down == pytest.approx(298, abs=2)
    assert n_ssm.central == pytest.approx(3305, abs=1)
    assert n_ssm.err_up == pytest.approx(661, abs=1)
    assert n_ssm.err_down == pytest.approx(529, abs=1)
    assert n_csl.central == pytest.approx(56, abs=3)
    assert n_csl.err_up == pytest.approx(608, abs=3)
    assert n_csl.err_down == pytest.approx(725, abs=3)


def test_net_csl_counts_null_experiment():
    e = reference_experiment(
        observed=ObservedCounts(0.0, 0.0, 0.0, 0.0, 0.0),
        ssm_rate_per_day=AsymmetricValue(0.0, 0.0, 0.0),
    )
    n_expt, n_ssm, n_csl = net_csl_counts(e)
    assert (n_expt.central, n_expt.err_up, n_expt.err_down) == (0.0, 0.0, 0.0)
    assert (n_csl.central, n_csl.err_up, n_csl.err_down) == (0.0, 0.0, 0.0)


def test_net_csl_counts_efficiency_scaling():
    half = net_csl_counts(reference_experiment(efficiency=0.40))[0].central
    full = net_csl_counts(reference_experiment(efficiency=0.80))[0].central
    assert full == pytest.approx(half / 2, rel=1e-12)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match=r"\(0,1\]"):
        reference_experiment(efficiency=0.0)
    with pytest.raises(ValueError):
        reference_experiment(efficiency=1.5)
    with pytest.raises(ValueError):
        reference_experiment(live_time_days=0.0)
    with pytest.raises(ValueError):
        reference_experiment(fiducial_radius_m=-1.0)
    for name in ("live_time_days", "fiducial_radius_m", "deuteron_density_per_cc"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                reference_experiment(**{name: bad})


def test_fiducial_volume():
    e = reference_experiment()
    assert e.fiducial_volume_kilotonne_m3 == pytest.approx(0.6969, abs=1e-4)
    assert e.live_time_yr == pytest.approx(0.6964, abs=1e-4)


def _reference_bound_inputs():
    e = reference_experiment()
    model = build_zero_range(EB_DEFAULT)
    _, _, n_csl = net_csl_counts(e)
    n_limit = one_sided_upper_limit(n_csl, 1.0)
    coeff = count_coefficient(model, e.deuteron_density_per_cc)
    return e, model, n_limit, coeff


def test_neutron_bound_at_grw():
    e, _, n_limit, coeff = _reference_bound_inputs()
    bound = neutron_coupling_bound(
        n_limit, RateDensity(GRW_LAMBDA_OVER_A2), coeff, e.live_time_yr, e.fiducial_volume_kilotonne_m3
    )
    assert 0.0074 <= bound.value <= 0.0076
    assert bound.rounded_up == 0.008


def test_neutron_bound_zero_limit():
    e, _, _, coeff = _reference_bound_inputs()
    bound = neutron_coupling_bound(0.0, RateDensity(GRW_LAMBDA_OVER_A2), coeff, 1.0, 1.0)
    assert bound.value == 0.0
    assert bound.rounded_up == 0.0


def test_neutron_bound_at_visibility_strength():
    e, _, n_limit, coeff = _reference_bound_inputs()
    bound = neutron_coupling_bound(
        n_limit, RateDensity(1e-10), coeff, e.live_time_yr, e.fiducial_volume_kilotonne_m3
    )
    assert 0.74 <= bound.value <= 0.80


def test_neutron_bound_validation():
    with pytest.raises(ValueError):
        neutron_coupling_bound(-1.0, RateDensity(1e-6), 1e7, 1.0, 1.0)
    with pytest.raises(ValueError):
        neutron_coupling_bound(100.0, RateDensity(1e-6), 0.0, 1.0, 1.0)


def test_bound_count_round_trip():
    # inverting the bound through expected_count must reproduce the count limit
    e, model, n_limit, coeff = _reference_bound_inputs()
    rng = np.random.default_rng(3)
    for ld in 10.0 ** rng.uniform(-10, 0.4, size=8):
        density = RateDensity(float(ld))
        b = neutron_coupling_bound(
            n_limit, density, coeff, e.live_time_yr, e.fiducial_volume_kilotonne_m3
        ).value
        params = CollapseParams(
            lambda_rate=float(ld) * 1e-10, a_length=1e-5, g_n=CODATA.m_n_over_m_p + b
        )
        pred = expected_count(
            params,
            e.live_time_yr,
            e.fiducial_volume_kilotonne_m3,
            e.deuteron_density_per_cc,
            model,
        )
        assert pred.expected_neutrons == pytest.approx(n_limit, rel=1e-9)


def test_electron_bound_values():
    ge = electron_coupling_bound(RateDensity(GRW_LAMBDA_OVER_A2))
    assert ge.half_width == pytest.approx(12 * CODATA.m_e_over_m_p, rel=1e-12)
    assert ge.half_width == pytest.approx(6.536e-3, rel=1e-3)
    assert ge.g_upper == pytest.approx(13 * CODATA.m_e_over_m_p, rel=1e-12)


def test_electron_bound_inverse_sqrt_scaling():
    b1 = electron_coupling_bound(RateDensity(1e-6)).half_width
    b4 = electron_coupling_bound(RateDensity(4e-6)).half_width
    assert b4 == pytest.approx(b1 / 2, rel=1e-15)


def test_visibility_floor_large_a():
    floor = visibility_floor_large_a(reference_sphere()).lambda_over_a2
    assert floor == pytest.approx(6.25e-11, rel=1e-2)
    # displayed as 0.6e-10
    assert floor == pytest.approx(0.6e-10, rel=0.05)


def test_visibility_floor_large_a_scalings():
    s = reference_sphere()
    quad_n = SphereVisibilityConfig(
        diameter_cm=s.diameter_cm,
        nucleon_count=4 * s.nucleon_count,
        perception_time_s=s.perception_time_s,
        collapse_margin=s.collapse_margin,
    )
    assert visibility_floor_large_a(quad_n).lambda_over_a2 == pytest.approx(
        visibility_floor_large_a(s).lambda_over_a2 / 16, rel=1e-15
    )
    doubled_budget = SphereVisibilityConfig(
        diameter_cm=s.diameter_cm,
        nucleon_count=s.nucleon_count,
        perception_time_s=2 * s.perception_time_s,
        collapse_margin=s.collapse_margin,
    )
    assert visibility_floor_large_a(doubled_budget).lambda_over_a2 == pytest.approx(
        visibility_floor_large_a(s).lambda_over_a2 / 2, rel=1e-15
    )


def test_visibility_floor_small_a():
    s = reference_sphere()
    assert small_a_floor_coefficient(s) == pytest.approx(1.88e-35, rel=1e-2)
    at_grw = visibility_floor_small_a(s, 1e-5).lambda_over_a2
    assert 1.8e-10 <= at_grw <= 2.1e-10
    # a^-5 homogeneity
    assert visibility_floor_small_a(s, 2e-5).lambda_over_a2 == pytest.approx(at_grw / 32, rel=1e-12)
    with pytest.raises(ValueError):
        visibility_floor_small_a(s, 0.0)


def test_theoretical_floor_is_max_of_regimes():
    s = reference_sphere()
    assert theoretical_floor(s, 1e-5) == visibility_floor_small_a(s, 1e-5).lambda_over_a2
    # at large a the large-a constraint takes over
    assert theoretical_floor(s, 1e-3) == visibility_floor_large_a(s).lambda_over_a2


def test_round_up_one_significant():
    assert round_up_one_significant(0.0074799) == pytest.approx(0.008, rel=1e-12)
    assert round_up_one_significant(0.007) == pytest.approx(0.007, rel=1e-12)
    assert round_up_one_significant(0.0095) == pytest.approx(0.01, rel=1e-12)
    assert round_up_one_significant(664.3) == pytest.approx(700.0, rel=1e-12)
    assert round_up_one_significant(0.0) == 0.0
    with pytest.raises(ValueError):
        round_up_one_significant(-1.0)


def test_round_up_dominates_value():
    rng = np.random.default_rng(17)
    for x in 10.0 ** rng.uniform(-8, 4, size=50):
        assert round_up_one_significant(float(x)) >= x * (1 - 1e-12)


def test_scan_exclusion_defaults():
    e = reference_experiment()
    curve = scan_exclusion(e, reference_sphere(), ScanSpec(), build_zero_range(EB_DEFAULT))
    lds, gns, ges = (np.asarray(c) for c in (curve.lambda_over_a2, curve.gn_bound, curve.ge_bound))

    assert curve.experimental_ceiling == RADIATION_CEILING == 2.5
    assert 1.8e-10 <= curve.theoretical_floor <= 2.1e-10
    assert np.all(np.diff(lds) > 0)
    assert np.all(np.diff(gns) < 0)  # inverse-square-root law
    assert np.all(np.diff(ges) < 0)

    nearest = int(np.argmin(np.abs(lds - 1e-6)))
    assert abs(lds[nearest] - 1e-6) / 1e-6 < 0.01
    assert 0.0073 <= gns[nearest] <= 0.0077

    # bound * sqrt(ld) is constant across the grid
    product = gns * np.sqrt(lds)
    assert np.max(np.abs(product / product[0] - 1)) < 1e-12


def test_scan_spec_validation():
    with pytest.raises(ValueError):
        ScanSpec(lo=1.0, hi=0.5)
    with pytest.raises(ValueError):
        ScanSpec(points=1)
    for lo, hi in ((1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="scan range"):
            ScanSpec(lo=lo, hi=hi)
    linear = ScanSpec(lo=1.0, hi=2.0, points=5, log_spacing=False)
    assert np.allclose(linear.grid(), [1.0, 1.25, 1.5, 1.75, 2.0])


def test_scan_spec_rejects_fractional_points():
    for points in (2.5, 201.0, math.nan):
        with pytest.raises(ValueError, match="scan points must be an integer"):
            ScanSpec(points=points)
    assert ScanSpec(points=np.int64(5)).grid() == ScanSpec(points=5).grid()


def test_exclusion_curve_validation():
    lds, gns, ges = np.array([1e-8, 1e-7]), np.array([0.1, 0.05]), np.array([0.2, 0.1])
    ExclusionCurve(lds, gns, ges, theoretical_floor=1e-10, experimental_ceiling=2.5)
    with pytest.raises(ValueError):
        ExclusionCurve(lds[::-1], gns, ges, theoretical_floor=1e-10, experimental_ceiling=2.5)
    with pytest.raises(ValueError):
        ExclusionCurve(np.array([1e-8, 1e-8]), gns, ges, theoretical_floor=1e-10, experimental_ceiling=2.5)
    with pytest.raises(ValueError):
        ExclusionCurve(lds, gns, ges, theoretical_floor=3.0, experimental_ceiling=2.5)
    with pytest.raises(OverflowError, match="1e-07"):
        ExclusionCurve(lds, np.array([0.1, np.inf]), ges, theoretical_floor=1e-10, experimental_ceiling=2.5)
    with pytest.raises(OverflowError, match="1e-08"):
        ExclusionCurve(lds, gns, np.array([np.nan, 0.1]), theoretical_floor=1e-10, experimental_ceiling=2.5)
    with pytest.raises(OverflowError, match="inf"):
        ExclusionCurve(np.array([1e-8, np.inf]), gns, ges, theoretical_floor=1e-10, experimental_ceiling=2.5)


@pytest.mark.parametrize("container", [np.array, list, tuple, lambda c: (x for x in c)])
def test_exclusion_curve_stores_python_floats(container):
    columns = ([1e-8, 1e-7], [np.float64(0.1), 0.05], [0.2, np.float32(0.125)])
    curve = ExclusionCurve(*(container(c) for c in columns), theoretical_floor=1e-10, experimental_ceiling=2.5)
    for name, expected in zip(("lambda_over_a2", "gn_bound", "ge_bound"), columns):
        stored = getattr(curve, name)
        assert type(stored) is tuple and {type(x) for x in stored} == {float}
        assert stored == tuple(float(x) for x in expected)


def test_exclusion_curve_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="same length"):
        ExclusionCurve([1e-8, 1e-7], [0.1], [0.2, 0.1], theoretical_floor=1e-10, experimental_ceiling=2.5)


def test_scan_exclusion_matches_pointwise_bounds():
    # the scan scales the GRW bounds over the grid; it must equal inverting
    # the count limit at each grid point, to the last bit
    e = reference_experiment()
    model = build_hulthen(EB_DEFAULT)
    scan = ScanSpec(points=1001)
    curve = scan_exclusion(e, reference_sphere(), scan, model, n_sigma=2.0)
    _, _, n_csl = net_csl_counts(e)
    n_limit = one_sided_upper_limit(n_csl, 2.0)
    coeff = count_coefficient(model, e.deuteron_density_per_cc)
    for ld, gn, ge in zip(list(scan.grid()), list(curve.gn_bound), list(curve.ge_bound)):
        density = RateDensity(ld)
        assert gn == neutron_coupling_bound(
            n_limit, density, coeff, e.live_time_yr, e.fiducial_volume_kilotonne_m3
        ).value
        assert ge == electron_coupling_bound(density).half_width


def test_run_full_analysis_reference():
    report = run_full_analysis(
        reference_experiment(), reference_sphere(), build_zero_range(EB_DEFAULT)
    )
    assert 0.0073 <= report.gn_bound_at_grw <= 0.0077
    assert report.gn_bound_rounded == 0.008
    assert report.gn_bound_rounded >= report.gn_bound_at_grw
    assert 1500 <= report.strength_ratio <= 1700
    assert report.n_limit == one_sided_upper_limit(report.n_csl, report.n_sigma)
    assert report.n_limit == pytest.approx(664, abs=3)
    assert report.warnings == ()
    assert "a < d/2" in report.floor_regime


def test_run_full_analysis_zero_sigma():
    report = run_full_analysis(
        reference_experiment(), reference_sphere(), build_zero_range(EB_DEFAULT), n_sigma=0.0
    )
    assert report.n_limit == report.n_csl.central
    assert report.n_limit == pytest.approx(56, abs=3)


def test_run_full_analysis_hulthen_warns_on_model_spread():
    report = run_full_analysis(
        reference_experiment(), reference_sphere(), build_hulthen(EB_DEFAULT)
    )
    assert len(report.warnings) == 1
    assert "<r^2>" in report.warnings[0]
    assert "reference" in report.warnings[0]


def test_sphere_config_validation():
    with pytest.raises(ValueError):
        SphereVisibilityConfig(diameter_cm=0.0)
    with pytest.raises(ValueError):
        SphereVisibilityConfig(collapse_margin=-0.1)
    s = SphereVisibilityConfig()
    assert s.time_budget_s == pytest.approx(0.1, rel=1e-12)
