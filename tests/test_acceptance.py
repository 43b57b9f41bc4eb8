"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion; the whole module finishes at desk scale (well under 10 s).
"""

import math

import mpmath
import numpy as np
import pytest

from cslbounds import (
    GE_HALF_WIDTH_AT_GRW,
    GRW_LAMBDA_OVER_A2,
    AsymmetricValue,
    BoundStateModel,
    CollapseParams,
    ModelKind,
    add,
    combine_quadrature,
    count_coefficient,
    default_config,
    deuteron_rate,
    expected_count,
    mean_square_radius,
    net_csl_counts,
    neutron_coupling_bound,
    one_sided_upper_limit,
    run_full_analysis,
    scan_exclusion,
    small_a_floor_coefficient,
    spectrum_densities,
    subtract,
    visibility_floor_large_a,
    visibility_floor_small_a,
)
from cslbounds.constants import M_E_OVER_M_P, M_N_OVER_M_P


def _report(number, description, checks):
    failed = False
    try:
        checks()
    except AssertionError:
        failed = True
        raise
    finally:
        status = "FAIL" if failed else "PASS"
        print(f"criterion {number:02d} [{status}] {description}")


CFG = default_config()
MODEL = CFG.model


def test_criterion_01_count_coefficient_window():
    def checks():
        coeff = count_coefficient(CFG)
        assert 2.3e7 <= coeff <= 2.45e7

    _report(1, "first-principles count coefficient in [2.3e7, 2.45e7]", checks)


def test_criterion_02_counting_pipeline():
    def checks():
        n_expt, n_ssm, n_csl = net_csl_counts(CFG.experiment)
        assert n_expt.central == pytest.approx(3361, abs=2)
        assert n_expt.err_up == pytest.approx(300, abs=2)
        assert n_expt.err_down == pytest.approx(298, abs=2)
        assert n_ssm.central == pytest.approx(3305, abs=1)
        assert n_ssm.err_up == pytest.approx(661, abs=1)
        assert n_ssm.err_down == pytest.approx(529, abs=1)
        assert n_csl.central == pytest.approx(56, abs=3)
        assert n_csl.err_up == pytest.approx(608, abs=3)
        assert n_csl.err_down == pytest.approx(725, abs=3)

    _report(2, "counting pipeline reproduces 3361/3305/56 with paired errors", checks)


def test_criterion_03_one_sided_upper_limit():
    def checks():
        _, _, n_csl = net_csl_counts(CFG.experiment)
        assert one_sided_upper_limit(n_csl, 1.0) == pytest.approx(664, abs=3)

    _report(3, "one-sigma upper limit on the excess equals 664 +- 3", checks)


def test_criterion_04_neutron_bound():
    def checks():
        report = run_full_analysis(CFG)
        assert 0.0073 <= report.gn_bound_at_grw <= 0.0077
        assert report.gn_bound_rounded == 0.008

    _report(4, "neutron coupling bound in [0.0073, 0.0077], rounds up to 0.008", checks)


def test_criterion_05_electron_bound():
    def checks():
        assert GE_HALF_WIDTH_AT_GRW == pytest.approx(6.536e-3, rel=1e-3)
        report = run_full_analysis(CFG)
        assert report.ge_upper_at_grw == pytest.approx(13 * M_E_OVER_M_P, rel=1e-12, abs=0)

    _report(5, "electron bound 12 m_e/m_p within 0.1% of 6.536e-3, ceiling 13 m_e/m_p", checks)


def test_criterion_06_visibility_floors():
    def checks():
        sphere = CFG.sphere
        assert visibility_floor_large_a(sphere) == pytest.approx(6.25e-11, rel=0.01, abs=0)
        assert small_a_floor_coefficient(sphere) == pytest.approx(1.88e-35, rel=0.01, abs=0)
        at_grw = visibility_floor_small_a(sphere, 1e-5)
        assert 1.8e-10 <= at_grw <= 2.1e-10

    _report(6, "visibility floors: 6.25e-11 and 1.88e-35/a^5 within 1%", checks)


def test_criterion_07_scan_endpoint():
    def checks():
        # the default curve's first point is lambda/a^2 = 1e-10 itself
        curve = scan_exclusion(CFG)
        ld, f = next(curve.scalings())
        assert ld == 1e-10
        assert 0.74 <= curve.gn_bound_at_grw * f <= 0.80

    _report(7, "neutron bound at lambda/a^2 = 1e-10 in [0.74, 0.80]", checks)


def test_criterion_08_strength_ratio():
    def checks():
        report = run_full_analysis(CFG)
        assert 1500 <= report.strength_ratio <= 1700

    _report(8, "electron-vs-neutron bound strength ratio in [1500, 1700]", checks)


def test_criterion_09_property_suite():
    def checks():
        # zero-range <r^2> analytic oracle across 10 binding energies
        rng = np.random.default_rng(23)
        for eb in rng.uniform(0.5, 10.0, size=10):
            m = BoundStateModel(binding_energy_mev=float(eb))
            assert mean_square_radius(m) == pytest.approx(0.5 / m.kappa_per_fm**2 * 1e-26, rel=1e-8, abs=0)

        # spectrum sum rule to 0.1%
        kap = MODEL.kappa_per_fm
        spectral = mpmath.quad(lambda k: spectrum_densities(MODEL, (float(k),))[0], [0, kap, 10 * kap, mpmath.inf])
        assert spectral * 1e-26 == pytest.approx(mean_square_radius(MODEL), rel=1e-3, abs=0)

        # mass-proportional coupling kills the rate identically
        mass_prop = CollapseParams(1e-16, 1e-5, g_n=M_N_OVER_M_P)
        assert deuteron_rate(mass_prop, MODEL) == 0.0

        # exact quadratic scaling in the coupling deviation
        ratio = M_N_OVER_M_P
        r1 = deuteron_rate(CollapseParams(1e-16, 1e-5, g_n=ratio + 0.25), MODEL)
        r2 = deuteron_rate(CollapseParams(1e-16, 1e-5, g_n=ratio + 0.5), MODEL)
        assert r2 == 4.0 * r1

        # bound -> count round trip to 1e-9 relative
        e = CFG.experiment
        _, _, n_csl = net_csl_counts(e)
        n_limit = one_sided_upper_limit(n_csl, 1.0)
        b_grw = neutron_coupling_bound(n_limit, CFG)
        for ld in (1e-10, 1e-6, 2.5):
            b = b_grw * math.sqrt(GRW_LAMBDA_OVER_A2 / ld)
            params = CollapseParams(ld * 1e-10, 1e-5, g_n=ratio + b)
            pred = expected_count(CFG.replace(collapse=params))
            assert pred == pytest.approx(n_limit, rel=1e-9)

        # uncertainty algebra: commutativity and antisymmetry
        a = AsymmetricValue(10.0, 3.0, 4.0)
        b = AsymmetricValue(10.0, 1.5, 2.5)
        assert combine_quadrature(a, b) == combine_quadrature(b, a)
        c = AsymmetricValue(4.0, 2.0, 1.0)
        d1, d2 = subtract(a, c), subtract(c, a)
        assert d1.central == -d2.central
        assert d1.err_up == d2.err_down and d1.err_down == d2.err_up
        assert subtract(add(a, c), c).central == a.central

    _report(9, "property suite: oracles, sum rule, scaling laws, round trip, algebra", checks)


def test_criterion_10_model_spread_warning():
    def checks():
        report = run_full_analysis(CFG.replace(model=CFG.model.replace(kind=ModelKind.HULTHEN)))
        assert len(report.warnings) >= 1
        assert any("<r^2>" in w and "reference" in w for w in report.warnings)
        # the deviation reported is indeed beyond 10%
        r2 = mean_square_radius(CFG.model.replace(kind=ModelKind.HULTHEN))
        assert abs(r2 - 9e-26) / 9e-26 > 0.10
        # and the default model stays quiet
        quiet = run_full_analysis(CFG)
        assert quiet.warnings == ()

    _report(10, "Hulthen model triggers the <r^2> model-spread warning", checks)
