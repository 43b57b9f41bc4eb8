import math

import mpmath
import numpy as np
import pytest
from test_limits import EB_DEFAULT

from cslbounds import (
    BoundStateModel,
    CollapseParams,
    count_coefficient,
    default_config,
    deuteron_rate,
    deuteron_spectra,
    expected_count,
    grw_defaults,
    mean_square_radius,
)
from cslbounds.constants import HBAR_C_MEV_FM, M_N_OVER_M_P, REDUCED_MASS_NP_MEV

PAPER_DENSITY = (2.0 / 3.0) * 1e23


def _grw(g_n):
    return CollapseParams(lambda_rate=1e-16, a_length=1e-5, g_n=g_n)


# the reference run, its deuteron density PAPER_DENSITY and its model at EB_DEFAULT
REFERENCE = default_config().replace(model=BoundStateModel(binding_energy_mev=EB_DEFAULT))


def _run(g_n=None, model=REFERENCE.model, **experiment):
    """The reference run at GRW strength and g_n, with model and the experiment's fields changed."""
    return REFERENCE.replace(collapse=_grw(g_n), experiment=REFERENCE.experiment.replace(**experiment), model=model)


def _model_with_r2(r2_cm2):
    # invert 1/(2 kappa^2) and kappa = sqrt(2 mu E)/hbar c for the binding energy
    kappa_per_fm = math.sqrt(0.5 / (r2_cm2 * 1e26))
    eb = (kappa_per_fm * HBAR_C_MEV_FM) ** 2 / (2.0 * REDUCED_MASS_NP_MEV)
    return BoundStateModel(binding_energy_mev=eb)


def test_general_rate_zero_matrix_element():
    # |M|^2 = w <r^2> is zero at mass-proportional g_n, so the rate and every spectral
    # density are zero whatever the collapse strength lambda/a^2
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    for lam, a in [(1e-16, 1e-5), (1e-8, 1e-7), (1.0, 1e-10)]:
        p = CollapseParams(lam, a, g_n=M_N_OVER_M_P)
        assert deuteron_rate(p, model) == 0.0
        assert deuteron_spectra(p, model, [0.1, 1.0, 10.0]) == [0.0, 0.0, 0.0]


def test_general_rate_grw_value():
    # the general rate (lambda / 2 a^2) |M|^2 with |M|^2 = w <r^2>: the direct product (0.5e-6) w <r^2>,
    # which is (0.5e-6) * (9e-26) at unit weight and <r^2> = 9e-26
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    g_n = 0.75
    oracle = 0.5e-6 * ((g_n - M_N_OVER_M_P) / (1.0 + M_N_OVER_M_P)) ** 2 * mean_square_radius(model)
    assert deuteron_rate(_grw(g_n), model) == pytest.approx(oracle, rel=1e-12, abs=0)
    unit_weight = _grw(1.0 + 2.0 * M_N_OVER_M_P)
    assert deuteron_rate(unit_weight, _model_with_r2(9e-26)) == pytest.approx(4.5e-32, rel=1e-8, abs=0)


def test_general_rate_linear_in_lambda():
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    r1 = deuteron_rate(CollapseParams(1e-16, 1e-5, g_n=0.0), model)
    r2 = deuteron_rate(CollapseParams(2e-16, 1e-5, g_n=0.0), model)
    assert r2 == 2.0 * r1


def test_mass_proportional_coupling_vanishes_identically():
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    rate = deuteron_rate(_grw(M_N_OVER_M_P), model)
    assert rate == 0.0


def test_deuteron_rate_at_zero_coupling():
    # oracle: (lambda/2a^2) ((0 - m_n/m_p)/(1 + m_n/m_p))^2 <r^2> with <r^2> = 9e-26
    model = _model_with_r2(9e-26)
    ratio = M_N_OVER_M_P
    oracle = 0.5e-6 * (ratio / (1.0 + ratio)) ** 2 * 9e-26
    rate = deuteron_rate(_grw(0.0), model)
    assert rate == pytest.approx(oracle, rel=1e-8, abs=0)
    assert rate == pytest.approx(1.127e-32, rel=1e-3, abs=0)


def test_deuteron_rate_quadratic_in_coupling_deviation():
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    ratio = M_N_OVER_M_P
    r1 = deuteron_rate(_grw(ratio + 0.25), model)
    r2 = deuteron_rate(_grw(ratio + 0.5), model)
    assert r2 == 4.0 * r1


def test_deuteron_rate_requires_gn():
    with pytest.raises(ValueError, match="g_n"):
        deuteron_rate(grw_defaults(), BoundStateModel(binding_energy_mev=EB_DEFAULT))


def test_deuteron_rate_overflow_is_named():
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    # the weight's square overflows (a = 1 cm, so lambda/a^2 is lambda exactly)
    with pytest.raises(OverflowError, match=r"^dissociation rate at g_n = 1e\+200, lambda/a\^2 = 1e-06 s\^-1 cm\^-2 overflowed$"):
        deuteron_rate(CollapseParams(1e-6, 1.0, g_n=1e200), model)
    # lambda/a^2 and the weight are finite, their product is not
    with pytest.raises(OverflowError, match=r"^dissociation rate at g_n = 1e\+150, lambda/a\^2 = 1e\+300 s\^-1 cm\^-2 overflowed$"):
        deuteron_rate(CollapseParams(1e300, 1.0, g_n=1e150), model)


def test_com_reduction_matches_relative_weight():
    # fixing the mass-weighted center of mass at the origin ties r_p = -(m_n/m_p) r_n, so with the relative
    # coordinate r = r_p - r_n, r_p = c_p r and r_n = c_n r; the rate's weight is |g_p c_p + g_n c_n|^2 with
    # g_p = 1, which the law gives as the rate per <r^2> at lambda/a^2 = 2
    c_p, c_n = M_N_OVER_M_P / (1.0 + M_N_OVER_M_P), -1.0 / (1.0 + M_N_OVER_M_P)
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    rng = np.random.default_rng(11)
    for g_n in rng.uniform(0.0, 3.0, size=10):
        composed = (1.0 * c_p + g_n * c_n) ** 2
        weight = deuteron_rate(CollapseParams(2.0, 1.0, g_n=float(g_n)), model) / mean_square_radius(model)
        assert composed == pytest.approx(weight, rel=1e-12, abs=0)


def test_spectrum_integrates_to_total_rate():
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    p = _grw(0.0)
    kap = model.kappa_per_fm
    total = mpmath.quad(lambda k: deuteron_spectra(p, model, (float(k),))[0], [0, kap, 10 * kap, mpmath.inf])
    assert total == pytest.approx(deuteron_rate(p, model), rel=1e-3, abs=0)


def test_spectrum_vanishes_at_zero_k_and_mass_proportional_point():
    model = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    assert deuteron_spectra(_grw(0.0), model, (0.0,))[0] == 0.0
    p = _grw(M_N_OVER_M_P)
    for k in (0.1, 0.5, 2.0):
        assert deuteron_spectra(p, model, (k,))[0] == 0.0


def test_count_coefficient_against_quoted_value():
    # with the (3e-13 cm)^2 reference <r^2> the coefficient reproduces 2.4e7
    coeff = count_coefficient(_run(model=_model_with_r2(9e-26)))
    assert coeff == pytest.approx(2.4e7, rel=0.03)


def test_count_coefficient_default_model_window():
    coeff = count_coefficient(_run())
    assert 2.3e7 <= coeff <= 2.45e7


def test_expected_count_reference_exposure():
    # T = 0.70 yr, V = 0.697 (10^3 m^3) turns the coefficient into ~1.2e7 per
    # unit coupling deviation squared
    run = _run(M_N_OVER_M_P + 1.0, live_time_days=0.70 * 365.0)
    assert run.experiment.fiducial_volume_kilotonne_m3 == pytest.approx(0.697, abs=1e-3)
    assert expected_count(run) == pytest.approx(1.2e7, rel=0.03)


def test_expected_count_zero_at_mass_proportional():
    run = _run(M_N_OVER_M_P)
    assert expected_count(run) == 0.0
    assert count_coefficient(run) > 0


def test_expected_count_homogeneity():
    ratio = M_N_OVER_M_P
    days, radius = REFERENCE.experiment.live_time_days, REFERENCE.experiment.fiducial_radius_m
    base = expected_count(_run(ratio + 0.5))

    # doubling the live time doubles T, doubling the radius multiplies V by 8, and doubling
    # the density doubles the coefficient; the count follows each exactly
    assert expected_count(_run(ratio + 0.5, live_time_days=2 * days)) == 2 * base
    assert expected_count(_run(ratio + 0.5, fiducial_radius_m=2 * radius)) == 8 * base
    assert expected_count(_run(ratio + 0.5, deuteron_density_per_cc=2 * PAPER_DENSITY)) == 2 * base
    doubled_strength = REFERENCE.replace(collapse=CollapseParams(2e-16, 1e-5, g_n=ratio + 0.5))
    assert expected_count(doubled_strength) == 2 * base
    # quadratic in the coupling deviation
    assert expected_count(_run(ratio + 1.0)) == 4 * base

    rng = np.random.default_rng(5)
    for _ in range(10):
        t, v, c = rng.uniform(0.2, 4.0, size=3)
        run = _run(ratio + 0.5, live_time_days=t * days, fiducial_radius_m=radius * v ** (1 / 3),
                   deuteron_density_per_cc=c * PAPER_DENSITY)
        assert expected_count(run) == pytest.approx(base * t * v * c, rel=1e-12)


def test_expected_count_validates_inputs():
    with pytest.raises(ValueError):
        expected_count(REFERENCE.replace(collapse=grw_defaults()))


def test_expected_count_overflow_is_named():
    # the deviation squared overflows where lambda/a^2 and the coefficient are finite
    with pytest.raises(OverflowError, match=r"^expected count at g_n = 1e\+200 overflowed$"):
        expected_count(_run(1e200))
