import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslbounds import QuadratureError, integrate_radial

# terms (c, n, a) of sum c r^n exp(-a r); c > 0 keeps the integral away from cancellation
EXP_POLY_TERMS = st.lists(
    st.tuples(st.floats(0.1, 10.0), st.integers(0, 4), st.floats(0.2, 5.0)), min_size=1, max_size=3
)


def _exp_poly(terms):
    return lambda r: sum(c * r**n * math.exp(-a * r) for c, n, a in terms)


def _exp_poly_integral(terms):
    # int_0^inf r^n exp(-a r) dr = Gamma(n+1) / a^(n+1), at 30 digits
    with mpmath.workdps(30):
        return float(sum(c * mpmath.gamma(n + 1) / mpmath.mpf(a) ** (n + 1) for c, n, a in terms))


def test_exponential_integral():
    value, err = integrate_radial(lambda r: math.exp(-r))
    assert value == pytest.approx(1.0, rel=1e-10)
    assert err <= 1e-9


def test_polynomial_exponential_integral():
    value, _ = integrate_radial(lambda r: r * r * math.exp(-2 * r))
    assert value == pytest.approx(0.25, rel=1e-10)


def test_error_estimate_meets_tolerance():
    value, err = integrate_radial(lambda r: math.exp(-r * r))
    assert value == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-9)
    assert err <= 1e-9 * abs(value)


@settings(max_examples=200, deadline=None)
@given(EXP_POLY_TERMS)
def test_matches_exact_gamma_sum_and_bounds_true_error(terms):
    value, err = integrate_radial(_exp_poly(terms))
    exact = _exp_poly_integral(terms)
    assert value == pytest.approx(exact, rel=1e-9)
    assert abs(value - exact) <= err + 1e-12 * abs(value)


def test_non_finite_sample_raises():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_radial(lambda r: math.nan)


def test_subdivision_exhaustion_raises():
    with pytest.raises(QuadratureError, match="did not converge.*200 subintervals"):
        integrate_radial(lambda r: math.cos(500.0 * r) * math.exp(-r))


def test_slow_tail_stops_at_end_of_half_line():
    # the integral diverges; bisection toward t = 1 would otherwise divide by zero there
    with pytest.raises(QuadratureError, match="end of the half-line"):
        integrate_radial(lambda r: 1.0 / (1.0 + r))
