import math

import numpy as np
import pytest
import scipy.integrate as si

from cslbounds import (
    CODATA,
    CollapseParams,
    MatrixElementSq,
    build_zero_range,
    com_reduction_coefficients,
    count_coefficient,
    deuteron_rate,
    deuteron_spectrum,
    expected_count,
    general_rate,
    grw_defaults,
    relative_coupling_weight,
)

EB_DEFAULT = 2.224575
PAPER_DENSITY = (2.0 / 3.0) * 1e23


def _grw(g_n):
    return CollapseParams(lambda_rate=1e-16, a_length=1e-5, g_n=g_n)


def _model_with_r2(r2_cm2):
    # invert 1/(2 kappa^2) and kappa = sqrt(2 mu E)/hbar c for the binding energy
    kappa_per_fm = math.sqrt(0.5 / (r2_cm2 * 1e26))
    eb = (kappa_per_fm * CODATA.hbar_c_mev_fm) ** 2 / (2.0 * CODATA.reduced_mass_np_mev)
    return build_zero_range(eb)


def test_general_rate_zero_matrix_element():
    assert general_rate(grw_defaults(), MatrixElementSq(0.0)).per_second == 0.0


def test_general_rate_grw_value():
    # direct product (0.5e-6) * (9e-26)
    rate = general_rate(grw_defaults(), MatrixElementSq(9e-26))
    assert rate.per_second == pytest.approx(4.5e-32, rel=1e-12, abs=0)


def test_general_rate_linear_in_lambda():
    me = MatrixElementSq(3.3e-26)
    r1 = general_rate(CollapseParams(1e-16, 1e-5), me).per_second
    r2 = general_rate(CollapseParams(2e-16, 1e-5), me).per_second
    assert r2 == 2.0 * r1


def test_matrix_element_rejects_negative():
    with pytest.raises(ValueError):
        MatrixElementSq(-1e-30)


def test_mass_proportional_coupling_vanishes_identically():
    model = build_zero_range(EB_DEFAULT)
    rate = deuteron_rate(_grw(CODATA.m_n_over_m_p), model)
    assert rate.per_second == 0.0


def test_deuteron_rate_at_zero_coupling():
    # oracle: (lambda/2a^2) ((0 - m_n/m_p)/(1 + m_n/m_p))^2 <r^2> with <r^2> = 9e-26
    model = _model_with_r2(9e-26)
    ratio = CODATA.m_n_over_m_p
    oracle = 0.5e-6 * (ratio / (1.0 + ratio)) ** 2 * 9e-26
    rate = deuteron_rate(_grw(0.0), model)
    assert rate.per_second == pytest.approx(oracle, rel=1e-8, abs=0)
    assert rate.per_second == pytest.approx(1.127e-32, rel=1e-3, abs=0)


def test_deuteron_rate_quadratic_in_coupling_deviation():
    model = build_zero_range(EB_DEFAULT)
    ratio = CODATA.m_n_over_m_p
    r1 = deuteron_rate(_grw(ratio + 0.25), model).per_second
    r2 = deuteron_rate(_grw(ratio + 0.5), model).per_second
    assert r2 == 4.0 * r1


def test_deuteron_rate_requires_gn():
    with pytest.raises(ValueError, match="g_n"):
        deuteron_rate(grw_defaults(), build_zero_range(EB_DEFAULT))


def test_com_reduction_matches_relative_weight():
    # c_p, c_n from the fixed-center-of-mass constraint must reproduce the
    # relative-coordinate weight |g_p c_p + g_n c_n|^2 with g_p = 1
    c_p, c_n = com_reduction_coefficients()
    rng = np.random.default_rng(11)
    for g_n in rng.uniform(0.0, 3.0, size=10):
        composed = (1.0 * c_p + g_n * c_n) ** 2
        assert composed == pytest.approx(relative_coupling_weight(float(g_n)), rel=1e-12, abs=0)


def test_spectrum_integrates_to_total_rate():
    model = build_zero_range(EB_DEFAULT)
    p = _grw(0.0)
    kap = model.kappa_per_fm
    total, _ = si.quad(
        lambda k: deuteron_spectrum(p, model, k), 0.0, 60.0 * kap, limit=200, epsrel=1e-6
    )
    assert total == pytest.approx(deuteron_rate(p, model).per_second, rel=1e-3, abs=0)


def test_spectrum_vanishes_at_zero_k_and_mass_proportional_point():
    model = build_zero_range(EB_DEFAULT)
    assert deuteron_spectrum(_grw(0.0), model, 0.0) == 0.0
    p = _grw(CODATA.m_n_over_m_p)
    for k in (0.1, 0.5, 2.0):
        assert deuteron_spectrum(p, model, k) == 0.0


def test_count_coefficient_against_quoted_value():
    # with the (3e-13 cm)^2 reference <r^2> the coefficient reproduces 2.4e7
    model = _model_with_r2(9e-26)
    coeff = count_coefficient(model, PAPER_DENSITY)
    assert coeff == pytest.approx(2.4e7, rel=0.03)


def test_count_coefficient_default_model_window():
    model = build_zero_range(EB_DEFAULT)
    coeff = count_coefficient(model, PAPER_DENSITY)
    assert 2.3e7 <= coeff <= 2.45e7


def test_expected_count_reference_exposure():
    # T = 0.70 yr, V = 0.697 (10^3 m^3) turns the coefficient into ~1.2e7 per
    # unit coupling deviation squared
    model = build_zero_range(EB_DEFAULT)
    pred = expected_count(_grw(CODATA.m_n_over_m_p + 1.0), 0.70, 0.697, PAPER_DENSITY, model)
    assert pred.expected_neutrons == pytest.approx(1.2e7, rel=0.03)


def test_expected_count_zero_at_mass_proportional():
    model = build_zero_range(EB_DEFAULT)
    pred = expected_count(_grw(CODATA.m_n_over_m_p), 1.0, 1.0, PAPER_DENSITY, model)
    assert pred.expected_neutrons == 0.0
    assert pred.coefficient > 0


def test_expected_count_homogeneity():
    model = build_zero_range(EB_DEFAULT)
    ratio = CODATA.m_n_over_m_p
    base = expected_count(_grw(ratio + 0.5), 1.0, 1.0, PAPER_DENSITY, model).expected_neutrons

    # doubling each extensive input doubles the count exactly
    assert expected_count(_grw(ratio + 0.5), 2.0, 1.0, PAPER_DENSITY, model).expected_neutrons == 2 * base
    assert expected_count(_grw(ratio + 0.5), 1.0, 2.0, PAPER_DENSITY, model).expected_neutrons == 2 * base
    assert expected_count(_grw(ratio + 0.5), 1.0, 1.0, 2 * PAPER_DENSITY, model).expected_neutrons == 2 * base
    doubled_strength = CollapseParams(2e-16, 1e-5, g_n=ratio + 0.5)
    assert expected_count(doubled_strength, 1.0, 1.0, PAPER_DENSITY, model).expected_neutrons == 2 * base
    # quadratic in the coupling deviation
    assert expected_count(_grw(ratio + 1.0), 1.0, 1.0, PAPER_DENSITY, model).expected_neutrons == 4 * base

    rng = np.random.default_rng(5)
    for _ in range(10):
        t, v, c = rng.uniform(0.2, 4.0, size=3)
        scaled = expected_count(_grw(ratio + 0.5), t, v, c * PAPER_DENSITY, model).expected_neutrons
        assert scaled == pytest.approx(base * t * v * c, rel=1e-12)


def test_expected_count_validates_inputs():
    model = build_zero_range(EB_DEFAULT)
    with pytest.raises(ValueError):
        expected_count(_grw(0.0), 0.0, 1.0, PAPER_DENSITY, model)
    with pytest.raises(ValueError):
        expected_count(_grw(0.0), 1.0, -1.0, PAPER_DENSITY, model)
    with pytest.raises(ValueError):
        expected_count(grw_defaults(), 1.0, 1.0, PAPER_DENSITY, model)


@pytest.mark.parametrize("density", [math.nan, math.inf, 0.0])
def test_count_coefficient_rejects_non_finite_density(density):
    with pytest.raises(ValueError, match="deuteron density must be finite and positive"):
        count_coefficient(build_zero_range(EB_DEFAULT), density)
