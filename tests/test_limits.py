import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cslbounds import (
    GE_HALF_WIDTH_AT_GRW,
    GRW_LAMBDA_OVER_A2,
    RADIATION_CEILING,
    AsymmetricValue,
    BoundStateModel,
    ConstraintError,
    ExclusionCurve,
    ExperimentConfig,
    ModelKind,
    ObservedCounts,
    RunConfig,
    ScanSpec,
    SphereVisibilityConfig,
    default_config,
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
from cslbounds import cli
from cslbounds.constants import M_E_OVER_M_P, M_N_OVER_M_P, CollapseParams
from cslbounds.limits import _floor_regime

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


def reference_run(**fields):
    return RunConfig(experiment=reference_experiment(), sphere=reference_sphere(), **fields)


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
    run = reference_run(model=BoundStateModel(binding_energy_mev=EB_DEFAULT))
    _, _, n_csl = net_csl_counts(run.experiment)
    return run, one_sided_upper_limit(n_csl, 1.0)


def test_neutron_bound_at_grw():
    run, n_limit = _reference_bound_inputs()
    bound = neutron_coupling_bound(n_limit, run)
    assert 0.0074 <= bound <= 0.0076
    assert round_up_one_significant(bound) == 0.008


def test_neutron_bound_zero_limit():
    run, _ = _reference_bound_inputs()
    bound = neutron_coupling_bound(0.0, run)
    assert bound == 0.0
    assert round_up_one_significant(bound) == 0.0


def test_neutron_bound_at_visibility_strength():
    run, n_limit = _reference_bound_inputs()
    bound = neutron_coupling_bound(n_limit, run)
    assert 0.74 <= bound * math.sqrt(GRW_LAMBDA_OVER_A2 / 1e-10) <= 0.80


def test_neutron_bound_validation():
    run, _ = _reference_bound_inputs()
    with pytest.raises(ValueError):
        neutron_coupling_bound(-1.0, run)


def test_bound_count_round_trip():
    # inverting the bound, scaled from GRW strength, through expected_count must reproduce the count limit
    run, n_limit = _reference_bound_inputs()
    at_grw = neutron_coupling_bound(n_limit, run)
    rng = np.random.default_rng(3)
    for ld in 10.0 ** rng.uniform(-10, 0.4, size=8):
        b = at_grw * math.sqrt(GRW_LAMBDA_OVER_A2 / float(ld))
        params = CollapseParams(
            lambda_rate=float(ld) * 1e-10, a_length=1e-5, g_n=M_N_OVER_M_P + b
        )
        pred = expected_count(run.replace(collapse=params))
        assert pred == pytest.approx(n_limit, rel=1e-9)


def test_electron_bound_values():
    ge = GE_HALF_WIDTH_AT_GRW
    assert ge == pytest.approx(12 * M_E_OVER_M_P, rel=1e-12, abs=0)
    assert ge == pytest.approx(6.536e-3, rel=1e-3)
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    report = run_full_analysis(reference_run(model=model))
    assert report.ge_half_width_at_grw == ge
    assert report.ge_upper_at_grw == pytest.approx(13 * M_E_OVER_M_P, rel=1e-12, abs=0)


def test_electron_bound_inverse_sqrt_scaling():
    _, _, (b1, b4) = columns(curve_of(linear(1e-6, 4e-6)))
    assert b4 == pytest.approx(b1 / 2, rel=1e-15, abs=0)


def test_visibility_floor_large_a():
    floor = visibility_floor_large_a(reference_sphere())
    assert floor == pytest.approx(6.25e-11, rel=1e-2, abs=0)
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
    assert visibility_floor_large_a(quad_n) == pytest.approx(
        visibility_floor_large_a(s) / 16, rel=1e-15, abs=0
    )
    doubled_budget = SphereVisibilityConfig(
        diameter_cm=s.diameter_cm,
        nucleon_count=s.nucleon_count,
        perception_time_s=2 * s.perception_time_s,
        collapse_margin=s.collapse_margin,
    )
    assert visibility_floor_large_a(doubled_budget) == pytest.approx(
        visibility_floor_large_a(s) / 2, rel=1e-15, abs=0
    )


def test_visibility_floor_small_a():
    s = reference_sphere()
    assert small_a_floor_coefficient(s) == pytest.approx(1.88e-35, rel=1e-2, abs=0)
    at_grw = visibility_floor_small_a(s, 1e-5)
    assert 1.8e-10 <= at_grw <= 2.1e-10
    # a^-5 homogeneity
    assert visibility_floor_small_a(s, 2e-5) == pytest.approx(at_grw / 32, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        visibility_floor_small_a(s, 0.0)


def test_floors_and_volume_outside_float_range_are_overflow():
    with pytest.raises(OverflowError, match="small-a visibility floor at a = 1e-70 cm is outside the float range"):
        visibility_floor_small_a(reference_sphere(), 1e-70)   # a^5 underflows to 0
    for huge in (SphereVisibilityConfig(diameter_cm=1e200), SphereVisibilityConfig(nucleon_count=1e200)):
        with pytest.raises(OverflowError, match="large-a visibility floor of the sphere is outside the float range"):
            visibility_floor_large_a(huge)
        with pytest.raises(OverflowError, match="small-a visibility floor coefficient of the sphere is outside"):
            small_a_floor_coefficient(huge)
    for radius in (1e200, 1e-200):   # r^3 overflows, underflows
        with pytest.raises(OverflowError, match=re.escape(f"fiducial volume of radius {radius!r} m is outside")):
            reference_experiment(fiducial_radius_m=radius).fiducial_volume_kilotonne_m3


def test_theoretical_floor_is_max_of_regimes():
    s = reference_sphere()
    assert theoretical_floor(s, 1e-5) == visibility_floor_small_a(s, 1e-5)
    # at large a the large-a constraint takes over
    assert theoretical_floor(s, 1e-3) == visibility_floor_large_a(s)


def test_round_up_one_significant():
    assert round_up_one_significant(0.0074799) == 0.008
    assert round_up_one_significant(0.007) == 0.007
    assert round_up_one_significant(0.0095) == 0.01
    assert round_up_one_significant(664.3) == 700.0
    assert round_up_one_significant(0.0) == 0.0
    with pytest.raises(ValueError):
        round_up_one_significant(-1.0)
    # above 1e308 no one-digit decimal float is at or above x
    assert round_up_one_significant(1e308) == 1e308
    for x in (math.nextafter(1e308, math.inf), 1.5e308, 1.7976931348623157e308):
        with pytest.raises(OverflowError, match=re.escape(f"{x!r} rounded up to one significant digit is outside")):
            round_up_one_significant(x)


def test_round_up_just_above_a_digit_takes_the_next_digit():
    for x, expected in (
        (3.0000000001, 4.0),
        (0.0070000000001, 0.008),
        (9.0000000001e-5, 1e-4),
        (math.nextafter(3.0, 4.0), 4.0),
        (math.nextafter(0.1, 1.0), 0.2),
        (math.nextafter(1e23, math.inf), 2e23),
    ):
        assert round_up_one_significant(x) == expected, x


def test_round_up_keeps_every_one_digit_value():
    for e in range(-300, 301):
        for d in range(1, 10):
            x = float(f"{d}e{e}")
            assert round_up_one_significant(x) == x, x


def test_round_up_subnormals():
    # below 1e-323, 10.0**floor(log10(x)) is 0.0, so the rounding must not divide by it
    for x, expected in ((5e-324, 5e-324), (1e-323, 1e-323), (2.5e-320, 3e-320)):
        assert round_up_one_significant(x) == expected, x
    # every subnormal rounds to a one-digit value not below it, and the next one-digit value
    # down is either below it or rounds to the same float
    rng = np.random.default_rng(19)
    for x in sorted({math.ldexp(float(m), -1074) for m in rng.integers(1, 2**52, size=2000)} | {5e-324, 1e-323}):
        rounded = round_up_one_significant(x)
        digit, exponent = map(int, f"{rounded:.0e}".split("e"))
        assert rounded == float(f"{digit}e{exponent}") >= x
        below = float(f"{digit - 1}e{exponent}" if digit > 1 else f"9e{exponent - 1}")
        assert below < x or below == rounded, x


def test_round_up_dominates_value():
    # and is the least one-digit value that does
    rng = np.random.default_rng(17)
    for x in map(float, 10.0 ** rng.uniform(-300, 300, size=2000)):
        rounded = round_up_one_significant(x)
        digit, exponent = map(int, f"{rounded:.0e}".split("e"))
        assert rounded == float(f"{digit}e{exponent}") >= x
        assert float(f"{digit - 1}e{exponent}" if digit > 1 else f"9e{exponent - 1}") < x


def test_scan_exclusion_defaults():
    curve = scan_exclusion(reference_run(model=BoundStateModel(binding_energy_mev=EB_DEFAULT)))
    lds, gns, ges = (np.asarray(c) for c in columns(curve))

    assert RADIATION_CEILING == 2.5
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
    for hi in (0.5, 1.0):
        with pytest.raises(ValueError, match="scan range must satisfy"):
            ScanSpec(lo=1.0, hi=hi)
    with pytest.raises(ValueError):
        ScanSpec(points=1)
    for lo, hi, message in (
        (1.0, math.inf, "hi: must be positive (got inf)"),
        (math.nan, 1.0, "lo: must be positive (got nan)"),
        (1.0, math.nan, "hi: must be positive (got nan)"),
    ):
        with pytest.raises(ConstraintError, match=re.escape(message)):
            ScanSpec(lo=lo, hi=hi)
    linear = ScanSpec(lo=1.0, hi=2.0, points=5, log_spacing=False)
    assert np.allclose(linear.grid(), [1.0, 1.25, 1.5, 1.75, 2.0])


def test_scan_spec_rejects_fractional_points():
    for points in (2.5, 201.0, math.nan):
        with pytest.raises(ConstraintError, match=re.escape(f"points: expected an integer (got {points!r})")):
            ScanSpec(points=points)
    assert ScanSpec(points=np.int64(5)).grid() == ScanSpec(points=5).grid()


def linear(lo, hi, points=2):
    return ScanSpec(lo, hi, points, log_spacing=False)


def curve_of(scan, gn=0.1, floor=1e-10):
    return ExclusionCurve(scan, gn, theoretical_floor=floor)


def columns(curve):
    """The grid and both bounds at each of its points, as the curve writers print them."""
    grid, scalings = zip(*curve.scalings())
    return grid, tuple(curve.gn_bound_at_grw * f for f in scalings), tuple(GE_HALF_WIDTH_AT_GRW * f for f in scalings)


def test_scan_grid_that_repeats_a_point_is_an_order_error():
    # the linear step is below half an ulp of lo; the log step below half an ulp of 1
    for spec in (linear(1.0, 1.0000000000000004, 20), ScanSpec(1.0, math.nextafter(1.0, 2.0), 3)):
        with pytest.raises(ValueError, match="points must be sorted ascending in lambda_over_a2"):
            spec.grid()
        with pytest.raises(ValueError, match="points must be sorted ascending in lambda_over_a2"):
            curve_of(spec)


def test_exclusion_curve_validation():
    curve_of(linear(1e-8, 1e-7))
    with pytest.raises(ValueError, match="theoretical floor exceeds experimental ceiling"):
        curve_of(linear(1e-8, 1e-7), floor=3.0)
    assert curve_of(linear(1e-8, 1e-7), floor=RADIATION_CEILING).theoretical_floor == RADIATION_CEILING
    # the ceiling is the constant RADIATION_CEILING, which no argument sets
    with pytest.raises(TypeError, match="unexpected keyword argument 'experimental_ceiling'"):
        ExclusionCurve(linear(1e-8, 1e-7), 0.01, theoretical_floor=1e-10, experimental_ceiling=99.0)
    # the bounds are largest at the first point, which the overflow names
    with pytest.raises(OverflowError, match=r"non-finite value at lambda/a\^2 = 1e-320 s"):
        curve_of(linear(1e-320, 1e-7))
    for gn in (math.inf, math.nan, 1e308):
        with pytest.raises(OverflowError, match=r"non-finite value at lambda/a\^2 = 1e-08 s"):
            curve_of(linear(1e-8, 1e-7), gn)
    # the last point is hi itself on a linear grid; on a log grid a power of ten that overflows is named
    assert curve_of(linear(1e-6, 1.7976931348623157e308)).lambda_over_a2[-1] == 1.7976931348623157e308
    with pytest.raises(OverflowError, match=r"log grid overflowed: 10\*\*308\.2547"):
        curve_of(ScanSpec(1.0, 1.7976931348623157e308, 3))


def holds_a_grid(spec):
    try:
        spec.grid()
    except (ValueError, OverflowError):
        return False
    return True


# specs of 2 to 12 points from any positive lo, the neutron bound at GRW strength any finite float
positive_floats = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from(
    [5e-324, 2.2250738585072014e-308, 1e-6, 1.7976931348623157e308]
)
specs = st.builds(
    lambda ends, points, log_spacing: ScanSpec(*sorted(ends), points, log_spacing),
    st.sets(positive_floats, min_size=2, max_size=2),
    st.integers(min_value=2, max_value=12),
    st.booleans(),
).filter(holds_a_grid)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(specs, finite_floats)
@example(linear(5e-324, 1e-300), 0.0)                              # f = inf, 0 * inf = nan
@example(linear(5e-324, 1e-300), 5e-324)
@example(linear(2.2250738585072014e-308, 1.7976931348623157e308), 2.6e157)
@example(linear(2.2250738585072014e-308, 1.7976931348623157e308), 2.7e157)
@example(linear(1e-6, 1.0), 1.7976931348623157e308)                # f = 1 at GRW strength
@example(linear(1e-7, 1e-6), 1.7976931348623157e308)
def test_exclusion_curve_overflows_exactly_when_a_bound_does(scan, gn):
    grid = scan.grid()
    scalings = [math.sqrt(GRW_LAMBDA_OVER_A2 / x) for x in grid]
    points = [(x, gn * f, GE_HALF_WIDTH_AT_GRW * f) for x, f in zip(grid, scalings)]
    if all(map(math.isfinite, (v for point in points for v in point))):
        c = curve_of(scan, gn)
        assert list(zip(*columns(c))) == points
    else:
        with pytest.raises(OverflowError, match=re.escape(f"at lambda/a^2 = {grid[0]!r} s")):
            curve_of(scan, gn)


def test_scan_exclusion_matches_pointwise_bounds():
    # the scan scales the bounds at GRW strength over the grid; each point must equal the
    # bound at GRW strength times sqrt((lambda/a^2)_GRW / x), to the last bit
    e = reference_experiment()
    model = BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT)
    scan = ScanSpec(points=1001)
    run = reference_run(scan=scan, model=model, n_sigma=2.0)
    curve = scan_exclusion(run)
    _, _, n_csl = net_csl_counts(e)
    n_limit = one_sided_upper_limit(n_csl, 2.0)
    assert curve.lambda_over_a2 == tuple(scan.grid())
    at_grw = neutron_coupling_bound(n_limit, run)
    assert curve.gn_bound_at_grw == at_grw
    for x, gn, ge in zip(*columns(curve)):
        assert gn == at_grw * math.sqrt(GRW_LAMBDA_OVER_A2 / x)
        assert ge == GE_HALF_WIDTH_AT_GRW * math.sqrt(GRW_LAMBDA_OVER_A2 / x)


def test_scan_exclusion_holds_the_spec_it_scanned():
    cfg = default_config()
    curve = scan_exclusion(cfg)
    assert curve.scan is cfg.scan
    assert curve == scan_exclusion(cfg.replace(scan=ScanSpec()))


def test_scan_curve_holds_no_bound_columns():
    # a 1.5e4-point curve holds its grid, a tuple of floats of about 0.46 MiB, and two
    # scalars; each column of bounds would add as much again
    run = reference_run(scan=ScanSpec(points=15_000), model=BoundStateModel())
    scan_exclusion(run)   # first calls fill caches, which are not the curve's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve = scan_exclusion(run)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(curve.lambda_over_a2) == 15_000
    assert retained < 0.6 * 2**20


def test_run_full_analysis_reference():
    report = run_full_analysis(reference_run(model=BoundStateModel(binding_energy_mev=EB_DEFAULT)))
    assert 0.0073 <= report.gn_bound_at_grw <= 0.0077
    assert report.gn_bound_rounded == 0.008
    assert report.gn_bound_rounded >= report.gn_bound_at_grw
    assert 1500 <= report.strength_ratio <= 1700
    assert report.n_limit == one_sided_upper_limit(report.n_csl, report.n_sigma)
    assert report.n_limit == pytest.approx(664, abs=3)
    assert report.warnings == ()
    assert "a < d/2" in report.floor_regime


def test_run_full_analysis_reads_every_field_of_the_run(capsys, tmp_path):
    doc = {"n_sigma": 2.0, "collapse": {"a_cm": 1e-4}, "scan": {"points": 5}}
    cfg = default_config()
    run = cfg.replace(n_sigma=2.0, collapse=cfg.collapse.replace(a_length=1e-4), scan=ScanSpec(points=5))
    report = run_full_analysis(run)
    assert report.n_sigma == 2.0 and report.curve.scan.points == 5
    assert report.curve.theoretical_floor == visibility_floor_large_a(run.sphere)
    assert "large-a visibility constraint dominates at a=0.0001 cm (a > d/2)" in report.floor_regime
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--config", str(path), "--format", "structured"]) == 0
    printed = json.loads(capsys.readouterr().out)["bounds"]["gn_bound_at_grw"]
    assert printed.hex() == report.gn_bound_at_grw.hex()


def test_floor_regime_names_the_large_a_floor_at_a_tie():
    s = reference_sphere()
    assert _floor_regime(s, 1e-5, visibility_floor_large_a(s)).startswith("large-a ")
    assert _floor_regime(s, 1e-5, theoretical_floor(s, 1e-5)).startswith("small-a ")


def test_run_full_analysis_zero_sigma():
    report = run_full_analysis(reference_run(model=BoundStateModel(binding_energy_mev=EB_DEFAULT), n_sigma=0.0))
    assert report.n_limit == report.n_csl.central
    assert report.n_limit == pytest.approx(56, abs=3)


def test_run_full_analysis_hulthen_warns_on_model_spread():
    report = run_full_analysis(reference_run(model=BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT)))
    assert len(report.warnings) == 1
    assert "<r^2>" in report.warnings[0]
    assert "reference" in report.warnings[0]


def test_sphere_config_validation():
    with pytest.raises(ValueError):
        SphereVisibilityConfig(diameter_cm=0.0)
    with pytest.raises(ValueError):
        SphereVisibilityConfig(collapse_margin=-0.1)
    s = SphereVisibilityConfig()
    assert s.time_budget_s == pytest.approx(0.1, rel=1e-12, abs=0)
