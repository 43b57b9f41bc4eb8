import functools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_limits import EB_DEFAULT

import cslbounds.cli as cli
from cslbounds import (
    BoundStateModel,
    ConstraintError,
    ModelKind,
    ScanSpec,
    default_k_grid,
    dipole_radial_integral,
    mean_square_radius,
    spectrum_densities,
)
from cslbounds.constants import HBAR_C_MEV_FM, REDUCED_MASS_NP_MEV
from cslbounds.deuteron import HULTHEN_BETA_OVER_KAPPA
from cslbounds.grids import linspace, logspace


def _terms(model):
    # (c_i, a_i) of u = N sum_i c_i exp(-a_i r)
    return [(1, model.kappa_per_fm)] + ([] if model.beta_per_fm is None else [(-1, model.beta_per_fm)])


def _r2_closed_form_fm2(model):
    # int r^2 u^2 dr = N^2 sum_ij c_i c_j 2 / (a_i + a_j)^3
    terms = _terms(model)
    return model.norm**2 * sum(ci * cj * 2.0 / (ai + aj) ** 3 for ci, ai in terms for cj, aj in terms)


def _half_line(f, rate, omega=0.0):
    # int_0^inf f at 20 digits, for an f that varies on the scale 1/rate and oscillates at angular
    # frequency omega: tanh-sinh while omega is at most 4 rate, quadosc above that, where
    # tanh-sinh missed I(k) by up to 5e-9 at 8 kappa
    with mpmath.workdps(20):
        if omega <= 4 * rate:
            return mpmath.quad(f, [0, 1 / rate, 10 / rate, mpmath.inf])
        return mpmath.quadosc(f, [0, mpmath.inf], omega=omega)


@functools.cache
def _exponential_bessel_integral(a, ell, k):
    # int r^2 exp(-a r) j_l(kr) dr, with j_l by upward recurrence from j_-1 = cos(x)/x and j_0 = sin(x)/x;
    # cached, as both kinds of model at one E_B share the kappa term
    def integrand(r):
        x = k * r
        cos, sin = mpmath.cos_sin(x)
        j_prev, j = cos / x, sin / x
        for n in range(ell):
            j_prev, j = j, (2 * n + 1) / x * j - j_prev
        return r * r * mpmath.exp(-a * r) * j

    return _half_line(integrand, a, k)


def _bessel_radial_integral(model, ell, k):
    # int r^2 u(r) j_l(kr) dr from the model's float parameters, one term of u at a time and at its
    # own rate: quadosc sums fewer periods of one term than of their difference. fsum subtracts exactly
    return float(model.norm * mpmath.fsum(c * _exponential_bessel_integral(a, ell, k) for c, a in _terms(model)))


def _closed_form(model, k):
    # (I(k), density(k)) from the subtractive per-term sum I = N sum_i c_i 2k / (k^2 + a_i^2)^2 at 50
    # digits and the model's float parameters; beta/kappa - 1 >= 1e-15 costs the difference at most 15
    with mpmath.workdps(50):
        k = mpmath.mpf(k)
        dipole = model.norm * sum(c * 2 * k / (k**2 + mpmath.mpf(a) ** 2) ** 2 for c, a in _terms(model))
        return float(dipole), float(2 / mpmath.pi * k**2 * dipole**2)


def _legendre_dipole_weight(ell):
    # Legendre coefficient of cos(theta): (2l+1)/2 int_-1^1 mu P_l(mu) dmu
    return float((2 * ell + 1) / mpmath.mpf(2) * mpmath.quad(lambda mu: mu * mpmath.legendre(ell, mu), [-1, 1]))


def _partial_wave_matrix_element(model, ell, k):
    # contribution of final-state partial wave l to <k|r|psi>; parity keeps only l = 1
    return _legendre_dipole_weight(ell) * _bessel_radial_integral(model, ell, k)


def test_binding_wavenumber_value():
    # oracle: kappa = sqrt(2 mu E_B) / (hbar c) evaluated with the stored constants
    kappa = BoundStateModel(binding_energy_mev=2.2246).kappa_per_fm
    oracle = math.sqrt(2.0 * REDUCED_MASS_NP_MEV * 2.2246) / HBAR_C_MEV_FM
    assert kappa == oracle
    assert 1.0 / kappa == pytest.approx(4.318, abs=1e-3)


def test_kappa_sqrt_scaling():
    m1 = BoundStateModel(binding_energy_mev=1.3)
    m4 = BoundStateModel(binding_energy_mev=4 * 1.3)
    assert m4.kappa_per_fm == pytest.approx(2 * m1.kappa_per_fm, rel=1e-15, abs=0)


def test_zero_range_normalization():
    m = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    assert _half_line(lambda r: m.u(r) ** 2, m.kappa_per_fm) == pytest.approx(1.0, rel=1e-9)


def test_hulthen_normalization():
    m = BoundStateModel(ModelKind.HULTHEN, 2.2246, 6.163)
    assert _half_line(lambda r: m.u(r) ** 2, m.kappa_per_fm) == pytest.approx(1.0, rel=1e-9)


def test_hulthen_vanishes_at_origin_and_positive():
    m = BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT)
    assert m.u(0.0) == 0.0
    z = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    for r in np.linspace(0.01, 30.0, 50):
        assert m.u(r) > 0
        assert z.u(r) > 0


def test_hulthen_rejects_beta_at_or_below_kappa():
    for ratio in (1.0, 0.5):
        with pytest.raises(ConstraintError, match=re.escape(f"beta_over_kappa: must be greater than 1 (got {ratio!r})")):
            BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT, beta_over_kappa=ratio)


@pytest.mark.parametrize(
    "eb, beta_over_kappa",
    [
        (5e-324, 2.00001),   # (beta - kappa)^2 underflows to 0
        (1e-250, HULTHEN_BETA_OVER_KAPPA),   # kappa beta (kappa + beta) underflows to 0
        (1.0, 1e155),   # beta (kappa + beta) overflows
        (1e4, 1e308),   # beta = beta/kappa * kappa overflows to inf
    ],
)
def test_hulthen_norm_outside_float_range_is_overflow(eb, beta_over_kappa):
    message = f"Hulthen normalization at binding energy {eb!r} MeV, beta/kappa {beta_over_kappa!r} is outside the float range"
    with pytest.raises(OverflowError, match=re.escape(message)):
        BoundStateModel(ModelKind.HULTHEN, eb, beta_over_kappa)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, 0.0])
def test_model_rejects_non_finite_kappa(kappa):
    # kappa is derived; the binding energy E_B = (hbar c kappa)^2 / (2 mu) that would give it is refused
    eb = (kappa * HBAR_C_MEV_FM) ** 2 / (2.0 * REDUCED_MASS_NP_MEV)
    with pytest.raises(ConstraintError, match=re.escape(f"binding_energy_mev: must be positive (got {eb!r})")):
        BoundStateModel(binding_energy_mev=eb)


@pytest.mark.parametrize("eb", [1e306, 1.7e308])
def test_kappa_outside_float_range_is_overflow(eb):
    # 2 mu E_B overflows to inf
    message = f"binding wavenumber at binding energy {eb!r} MeV is outside the float range"
    for kind in ModelKind:
        with pytest.raises(OverflowError, match=re.escape(message)):
            BoundStateModel(kind, eb)


@pytest.mark.parametrize("eb", ["abc", -1, math.nan])
def test_binding_energy_outside_its_domain_is_constraint_error(eb):
    refusal = "expected a number" if isinstance(eb, str) else "must be positive"
    for kind in ModelKind:
        with pytest.raises(ConstraintError, match=re.escape(f"binding_energy_mev: {refusal} (got {eb!r})")):
            BoundStateModel(kind, eb)


@pytest.mark.parametrize("derived", ["kappa_per_fm", "beta_per_fm", "norm"])
def test_derived_values_cannot_be_given(derived):
    # a kappa, beta or norm that disagrees with the binding energy and beta/kappa cannot be built
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{derived}'"):
        BoundStateModel(binding_energy_mev=EB_DEFAULT, **{derived: 1.0})
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{derived}'"):
        BoundStateModel(ModelKind.HULTHEN).replace(**{derived: 1.0})


def test_model_norm_is_derived_not_a_field():
    # a model is its kind, binding energy and beta/kappa; kappa, beta and the norm are derived
    assert BoundStateModel._fields == ("kind", "binding_energy_mev", "beta_over_kappa")
    z, h = BoundStateModel(binding_energy_mev=EB_DEFAULT), BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT)
    kap, beta = h.kappa_per_fm, h.beta_per_fm
    assert z.norm == math.sqrt(2.0 * z.kappa_per_fm)
    assert h.norm == math.sqrt(2.0 * kap * beta * (kap + beta) / (beta - kap) ** 2)
    assert h.replace(beta_over_kappa=2.0).norm == math.sqrt(2.0 * kap * (2.0 * kap) * (3.0 * kap) / kap**2)
    for name in ("kappa", "beta", "norm"):
        assert name not in repr(h).replace("beta_over_kappa", "")
    assert BoundStateModel(ModelKind.ZERO_RANGE, beta_over_kappa=2.0).beta_per_fm is None


@settings(deadline=None)
@given(
    eb=st.floats(min_value=1e-100, max_value=1e100),
    ratio=st.floats(min_value=1.0, max_value=1e50, exclude_min=True),
)
def test_derived_values_are_the_closed_forms_bit_for_bit(eb, ratio):
    kappa = math.sqrt(2.0 * REDUCED_MASS_NP_MEV * eb) / HBAR_C_MEV_FM
    beta = ratio * kappa
    z, h = BoundStateModel(ModelKind.ZERO_RANGE, eb, ratio), BoundStateModel(ModelKind.HULTHEN, eb, ratio)
    assert (z.kappa_per_fm, z.beta_per_fm, z.norm) == (kappa, None, math.sqrt(2.0 * kappa))
    assert (h.kappa_per_fm, h.beta_per_fm) == (kappa, beta)
    assert h.norm == math.sqrt(2.0 * kappa * beta * (kappa + beta) / (beta - kappa) ** 2)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_hulthen_model_rejects_non_finite_beta(beta):
    # beta is derived as beta/kappa times kappa, so it is non-finite only where beta/kappa is or
    # where the product overflows, which test_hulthen_norm_outside_float_range_is_overflow covers
    with pytest.raises(ConstraintError, match=re.escape(f"beta_over_kappa: must be greater than 1 (got {beta!r})")):
        BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT, beta)


def test_spectrum_density_rejects_nan():
    for k in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match=re.escape(f"k_per_fm must be finite and non-negative (got {k!r})")):
            spectrum_densities(BoundStateModel(binding_energy_mev=EB_DEFAULT), (1.0, k))


def test_non_positive_binding_energy_rejected():
    for eb in (0.0, -2.2):
        for kind in ModelKind:
            with pytest.raises(ConstraintError, match="binding_energy_mev: must be positive"):
                BoundStateModel(kind, eb)


def test_hulthen_approaches_zero_range_shape():
    # for beta >> kappa the Hulthen u matches the zero-range u at r >> 1/beta
    m = BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT, beta_over_kappa=1e6)
    z = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    for r in (0.5, 1.0, 3.0, 8.0):
        assert float(m.u(r)) == pytest.approx(float(z.u(r)), rel=1e-5)


def test_zero_range_r2_value():
    # analytic 1/(2 kappa^2) with kappa^-1 = 4.3176 fm gives 9.32e-26 cm^2
    m = BoundStateModel(binding_energy_mev=2.2246)
    r2 = mean_square_radius(m)
    assert r2 == pytest.approx(9.32e-26, rel=1e-3, abs=0)
    assert r2 == pytest.approx(9e-26, rel=0.10, abs=0)  # the (3e-13 cm)^2 reference


def test_zero_range_r2_analytic_oracle_randomized():
    rng = np.random.default_rng(2)
    for eb in rng.uniform(0.5, 10.0, size=10):
        m = BoundStateModel(binding_energy_mev=float(eb))
        analytic = 0.5 / m.kappa_per_fm**2 * 1e-26
        assert mean_square_radius(m) == pytest.approx(analytic, rel=1e-11, abs=0)


def test_hulthen_r2_closed_form():
    rng = np.random.default_rng(3)
    for eb, beta_over_kappa in zip(rng.uniform(0.5, 10.0, size=20), rng.uniform(1.5, 20.0, size=20)):
        m = BoundStateModel(ModelKind.HULTHEN, float(eb), float(beta_over_kappa))
        assert mean_square_radius(m) == pytest.approx(_r2_closed_form_fm2(m) * 1e-26, rel=1e-11, abs=0)
    m = BoundStateModel(ModelKind.HULTHEN, 2.2246, 6.163)
    r2 = mean_square_radius(m)
    assert r2 == pytest.approx(_r2_closed_form_fm2(m) * 1e-26, rel=1e-11, abs=0)
    # 0.7954 / kappa^2 for the conventional shape parameter
    assert r2 == pytest.approx(0.7954 / m.kappa_per_fm**2 * 1e-26, rel=1e-3, abs=0)
    assert r2 == pytest.approx(1.48e-25, rel=5e-3, abs=0)


def test_a_kind_given_by_its_value_is_its_member():
    # the README's library example builds records in Python; a kind named by its value is the Hulthen model
    model = BoundStateModel(kind="hulthen")
    assert model.kind is ModelKind.HULTHEN and model.beta_per_fm is not None
    assert mean_square_radius(model) == 1.4830500898934436e-25
    assert mean_square_radius(BoundStateModel(kind="zero-range")) == 9.321124603819046e-26


def test_r2_monotone_in_binding_energy():
    for kind in ModelKind:
        values = [mean_square_radius(BoundStateModel(kind, eb)) for eb in (0.8, 1.5, 2.2246, 4.0, 8.0)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_spectrum_density_vanishes_at_zero_k():
    m = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    assert spectrum_densities(m, (0.0,))[0] == 0.0


def test_spectrum_density_non_negative_sampled():
    m = BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT)
    ks = np.logspace(-2.5, 1.5, 100) * m.kappa_per_fm
    for k in ks:
        assert spectrum_densities(m, (float(k),))[0] >= 0.0


def test_spectrum_matches_zero_range_closed_form():
    m = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    kap = m.kappa_per_fm
    # the package missed by at most 5.3e-16 relative here, and by 1.1e-15 over 3000 random
    # E_B in [0.5, 10] MeV and k/kappa log-uniform in [1e-3, 100]
    for factor in (0.05, 0.3, 1.0, 3.0, 7.0, 12.0, 40.0):
        k = factor * kap
        got = spectrum_densities(m, (k,))[0]
        assert got == pytest.approx(_closed_form(m, k)[1], rel=2e-15, abs=0)


@pytest.mark.parametrize("kind", list(ModelKind), ids=["build_zero_range", "build_hulthen"])
@pytest.mark.parametrize("eb", [1.0, 2.2246, 5.0])
def test_spectrum_sum_rule(kind, eb):
    model = BoundStateModel(kind, eb)
    spectral = _half_line(lambda k: spectrum_densities(model, (float(k),))[0], 1.0 / model.kappa_per_fm)
    assert spectral * 1e-26 == pytest.approx(mean_square_radius(model), rel=1e-3, abs=0)


@pytest.mark.parametrize("eb", [0.5, 1.0, EB_DEFAULT, 5.0, 10.0])
def test_spectrum_sum_rule_as_beta_approaches_kappa(eb):
    # at beta/kappa = 1 + 1e-6 <r^2>'s quadrature is good to about 2e-11; the subtractive spectrum
    # missed by up to 8e-11. abs=0: approx's default absolute tolerance of 1e-12 would pass any value in cm^2
    model = BoundStateModel(ModelKind.HULTHEN, eb, 1.0 + 1e-6)
    spectral = _half_line(lambda k: spectrum_densities(model, (float(k),))[0], 1.0 / model.kappa_per_fm)
    assert spectral * 1e-26 == pytest.approx(mean_square_radius(model), rel=4e-11, abs=0)


def test_dipole_selection_rule():
    # direct angular projections of cos(theta): zero except l = 1
    assert abs(_legendre_dipole_weight(0)) < 1e-9
    assert _legendre_dipole_weight(1) == pytest.approx(1.0, rel=1e-9)
    assert abs(_legendre_dipole_weight(2)) < 1e-9
    assert abs(_legendre_dipole_weight(3)) < 1e-9


def test_partial_wave_contributions_vanish_off_dipole():
    m = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    kap = m.kappa_per_fm
    for k in (0.2 * kap, kap, 4.0 * kap):
        dipole = _partial_wave_matrix_element(m, 1, k)
        assert dipole == pytest.approx(dipole_radial_integral(m, k), rel=1e-9)
        assert abs(_partial_wave_matrix_element(m, 0, k)) < 1e-9 * abs(dipole)
        assert abs(_partial_wave_matrix_element(m, 2, k)) < 1e-9 * abs(dipole)


@settings(deadline=None)
@given(
    hulthen=st.booleans(),
    eb=st.floats(min_value=0.5, max_value=10.0),
    beta_over_kappa=st.floats(min_value=1.5, max_value=20.0),
    k_over_kappa=st.floats(min_value=1e-3, max_value=50.0),
)
def test_dipole_integral_matches_quadrature(hulthen, eb, beta_over_kappa, k_over_kappa):
    # the oracle is the subtractive closed form, which the two tests below check against quadrature
    m = BoundStateModel(ModelKind.HULTHEN if hulthen else ModelKind.ZERO_RANGE, eb, beta_over_kappa)
    k = k_over_kappa * m.kappa_per_fm
    assert dipole_radial_integral(m, k) == pytest.approx(_closed_form(m, k)[0], rel=1e-14, abs=0)


# (E_B, beta/kappa, k/kappa): the corners of the property's domain above, with k from 1e-3 kappa to
# 50 kappa on both sides of _half_line's switch to quadosc at 4 kappa, and the default model
@pytest.mark.parametrize("eb, beta_over_kappa, k_over_kappa", [
    (0.5, 1.5, 1e-3),
    (0.5, 20.0, 50.0),
    (10.0, 1.5, 4.0),
    (10.0, 20.0, 5.0),
    (EB_DEFAULT, HULTHEN_BETA_OVER_KAPPA, 1.0),
])
@pytest.mark.parametrize("hulthen", [False, True])
def test_closed_form_matches_quadrature(eb, beta_over_kappa, k_over_kappa, hulthen):
    m = BoundStateModel(ModelKind.HULTHEN if hulthen else ModelKind.ZERO_RANGE, eb, beta_over_kappa)
    k = k_over_kappa * m.kappa_per_fm
    assert _closed_form(m, k)[0] == pytest.approx(_bessel_radial_integral(m, 1, k), rel=1e-12, abs=0)


# (E_B, beta/kappa, k) where the built-in quadrature missed I(k) by 0.8e-7 and
# 1.2e-7 relative while estimating its error at about 1e-9
@pytest.mark.parametrize("eb, beta_over_kappa, k", [
    (2.4018392372956066, 9.365697267342417, 0.16698494761867266),
    (2.5610729958445257, 7.515905352544166, 0.019547678200599907),
])
@pytest.mark.parametrize("hulthen", [False, True])
def test_dipole_integral_matches_mpmath_where_quadrature_missed(eb, beta_over_kappa, k, hulthen):
    m = BoundStateModel(ModelKind.HULTHEN if hulthen else ModelKind.ZERO_RANGE, eb, beta_over_kappa)
    exact = _bessel_radial_integral(m, 1, k)
    assert dipole_radial_integral(m, k) == pytest.approx(exact, rel=1e-12, abs=0)
    assert _closed_form(m, k)[0] == pytest.approx(exact, rel=1e-12, abs=0)


def test_hulthen_dipole_integral_matches_mpmath_as_beta_approaches_kappa():
    # beta/kappa - 1 log-uniform in [1e-12, 1e3] and E_B in [1e-6, 1e6] MeV; the difference of
    # the two terms lost up to 5.1e-3 relative over these models, the factored form 9e-16
    rng = np.random.default_rng(16)
    for log_excess, log_eb in zip(rng.uniform(-12.0, 3.0, 100), rng.uniform(-6.0, 6.0, 100)):
        m = BoundStateModel(ModelKind.HULTHEN, 10.0**log_eb, 1.0 + 10.0**log_excess)
        for k in default_k_grid(m)[::10]:
            exact, _ = _closed_form(m, k)
            assert abs(dipole_radial_integral(m, k) - exact) <= 1e-14 * exact, (m, k)


def test_cli_hulthen_density_as_beta_approaches_kappa(capsys, tmp_path):
    # the subtractive form printed 4.7% too much at the first k and 0.0 at the last
    config = tmp_path / "config.json"
    config.write_text('{"model": {"beta_over_kappa": 1.000000000000001}}')
    assert cli.main(["spectrum", "--quantity", "density", "--model", "hulthen", "--config", str(config)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [tuple(map(float, line.split(","))) for line in lines]
    assert header == "k_per_fm,density_fm3" and len(rows) == 200
    assert all(density > 0 for _, density in rows)
    model = BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT, 1.000000000000001)
    for k, density in rows[::10] + rows[-1:]:
        _, exact = _closed_form(model, k)
        assert abs(density - exact) <= 1e-12 * exact, k


def test_dipole_integral_rejects_negative_k():
    with pytest.raises(ValueError):
        dipole_radial_integral(BoundStateModel(binding_energy_mev=EB_DEFAULT), -1.0)


@pytest.mark.parametrize(
    "model",
    [
        BoundStateModel(binding_energy_mev=1e-300),   # (k^2 + kappa^2)^2 underflows to 0
        BoundStateModel(binding_energy_mev=1e300),    # (k^2 + kappa^2)^2 overflows
        # no power raises: Hulthen's quotients overflow to inf, and so does (2/pi) k^2 I^2
        BoundStateModel(ModelKind.HULTHEN, 1e-210),
        # the subtractive Hulthen form underflowed here and printed every density as 0.0
        BoundStateModel(ModelKind.HULTHEN, 1e-160, 1.000000000001),
    ],
    ids=["underflow", "overflow", "product", "hulthen-near-kappa"],
)
def test_spectrum_outside_float_range_is_overflow(model):
    message = f"spectrum density at binding energy {model.binding_energy_mev!r} MeV is outside the float range"
    with pytest.raises(OverflowError, match=re.escape(message)):
        spectrum_densities(model, default_k_grid(model))


@pytest.mark.parametrize("beta_over_kappa", [1.001, HULTHEN_BETA_OVER_KAPPA, 1e3])
def test_hulthen_spectrum_computes_across_binding_energies(beta_over_kappa):
    # the quotients are taken one at a time: the single denominator
    # (k^2+kappa^2)^2 (k^2+beta^2)^2 underflows to 0 at the small binding energies
    for exponent in range(-120, 146, 5):
        model = BoundStateModel(ModelKind.HULTHEN, float(f"1e{exponent}"), beta_over_kappa)
        assert len(spectrum_densities(model, default_k_grid(model))) == 200


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_dipole_integral_rejects_non_finite_k(k):
    # the spectrum functions that take a whole k grid build no checked record per point
    with pytest.raises(ValueError, match="k_per_fm must be finite and non-negative"):
        dipole_radial_integral(BoundStateModel(binding_energy_mev=EB_DEFAULT), k)


def test_default_k_grid_span():
    m = BoundStateModel(binding_energy_mev=EB_DEFAULT)
    grid = default_k_grid(m)
    assert len(grid) == 200
    assert grid[0] == pytest.approx(0.01 * m.kappa_per_fm, rel=1e-12, abs=0)
    assert grid[-1] == pytest.approx(20.0 * m.kappa_per_fm, rel=1e-12)
    assert np.all(np.diff(grid) > 0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1e300, 400.0, 1.0]).flatmap(
        lambda scale: st.sets(st.floats(min_value=-scale, max_value=scale), min_size=2, max_size=2)
    ),
    st.integers(min_value=2, max_value=400),
)
def test_linspace_matches_numpy_bit_for_bit(ends, points):
    lo, hi = sorted(ends)
    # numpy has a separate rule for a step that underflows to zero; such a grid
    # repeats points, which ScanSpec.grid() rejects whichever rule built it
    assume((hi - lo) / (points - 1) != 0)
    assert linspace(lo, hi, points) == np.linspace(lo, hi, points).tolist()


def _log_grid_or_overflow(build):
    try:
        return list(map(float.hex, build()))
    except OverflowError as exc:
        return f"OverflowError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1e300, 400.0, 10.0]).flatmap(lambda scale: st.floats(min_value=-scale, max_value=scale)),
    st.sampled_from([1e300, 400.0, 10.0]).flatmap(lambda scale: st.floats(min_value=-scale, max_value=scale)),
    st.integers(min_value=2, max_value=400),
)
def test_logspace_is_ten_to_each_linspace_point(lo, hi, points):
    # bit for bit, a NaN from an infinite step included; an overflow keeps its message
    expected = _log_grid_or_overflow(lambda: [10.0**y for y in linspace(lo, hi, points)])
    if isinstance(expected, str):
        expected = f"OverflowError: log grid overflowed: 10**{hi!r} is beyond the float range"
    assert _log_grid_or_overflow(lambda: logspace(lo, hi, points)) == expected


def test_default_grids_no_farther_from_exact_powers_than_numpy():
    # 10**y by the C library's pow is at least as close to the exact power as the
    # SIMD pow behind np.logspace, at every point of the default scan and k grids
    spec, model = ScanSpec(), BoundStateModel(binding_energy_mev=EB_DEFAULT)
    kappa = model.kappa_per_fm
    cases = [
        (spec.grid(), math.log10(spec.lo), math.log10(spec.hi), spec.points),
        (default_k_grid(model), math.log10(0.01 * kappa), math.log10(20.0 * kappa), 200),
    ]
    with mpmath.workprec(200):
        for grid, lo, hi, points in cases:
            assert grid == logspace(lo, hi, points)
            for y, got, numpy_point in zip(linspace(lo, hi, points), grid, np.logspace(lo, hi, points).tolist()):
                exact = mpmath.power(10, mpmath.mpf(y))
                assert abs(mpmath.mpf(got) - exact) <= abs(mpmath.mpf(numpy_point) - exact), y


def test_wavefunction_and_grids_are_python_floats():
    for m in (BoundStateModel(binding_energy_mev=EB_DEFAULT), BoundStateModel(ModelKind.HULTHEN, EB_DEFAULT)):
        assert type(m.u(1.5)) is float
        assert type(m.u(np.float64(1.5))) is float
        assert {type(k) for k in default_k_grid(m)} == {float}
    for spec in (ScanSpec(), ScanSpec(lo=1.0, hi=2.0, points=5, log_spacing=False)):
        assert {type(x) for x in spec.grid()} == {float}
