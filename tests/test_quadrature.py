import math

import mpmath
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from cslbounds import QuadratureError, QuadratureSpec, integrate_radial

# terms (c, n, a) of sum c r^n exp(-a r); c > 0 keeps the integral away from cancellation
EXP_POLY_TERMS = st.lists(
    st.tuples(st.floats(0.1, 10.0), st.integers(0, 4), st.floats(0.2, 5.0)), min_size=1, max_size=3
)


def _exp_poly(terms):
    return lambda r: sum(c * r**n * math.exp(-a * r) for c, n, a in terms)


def _exp_poly_integral(terms, lower, upper):
    # int_lower^upper r^n exp(-a r) dr = Gamma(n+1; a lower, a upper) / a^(n+1), at 30 digits
    upper = mpmath.inf if math.isinf(upper) else upper
    with mpmath.workdps(30):
        return float(sum(
            c * mpmath.gammainc(n + 1, a * lower, a * upper) / mpmath.mpf(a) ** (n + 1) for c, n, a in terms
        ))


def test_exponential_integral():
    value, err = integrate_radial(lambda r: math.exp(-r), 0.0)
    assert value == pytest.approx(1.0, rel=1e-10)
    assert err <= 1e-9


def test_polynomial_exponential_integral():
    value, _ = integrate_radial(lambda r: r * r * math.exp(-2 * r), 0.0)
    assert value == pytest.approx(0.25, rel=1e-10)


def test_finite_interval():
    value, _ = integrate_radial(math.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, rel=1e-10)


def test_error_estimate_meets_tolerance():
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=0.0)
    value, err = integrate_radial(lambda r: math.exp(-r * r), 0.0, spec=spec)
    assert value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-6)
    assert err <= max(spec.rel_tol * abs(value), spec.abs_tol) * 10


@settings(max_examples=200, deadline=None)
@given(EXP_POLY_TERMS, st.floats(0.0, 5.0), st.one_of(st.just(math.inf), st.floats(0.5, 20.0)))
def test_matches_scipy_quad_and_bounds_true_error(terms, lower, width):
    # half-line and finite intervals; scipy's QUADPACK is the reference engine
    f, upper = _exp_poly(terms), lower + width
    value, err = integrate_radial(f, lower, upper)
    reference, _ = si.quad(f, lower, upper, epsabs=0.0, epsrel=1e-9, limit=200)
    assert value == pytest.approx(reference, rel=1e-9)
    assert abs(value - _exp_poly_integral(terms, lower, upper)) <= err + 1e-12 * abs(value)


def test_non_finite_sample_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_radial(lambda r: math.nan, 0.0, 1.0)


def test_subdivision_exhaustion_raises():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=2)
    with pytest.raises(QuadratureError, match="did not converge"):
        integrate_radial(lambda x: math.cos(500.0 * x), 0.0, 1.0, spec)


def test_invalid_domain_rejected():
    with pytest.raises(ValueError):
        integrate_radial(math.exp, math.inf, math.inf)
    with pytest.raises(ValueError):
        integrate_radial(math.exp, 1.0, 0.0)


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0},
    {"rel_tol": -1e-9},
    {"abs_tol": -1.0},
    {"max_subdivisions": 0},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)

