"""Adaptive quadrature for radial integrands on the half-line [0, inf).

The rule is QUADPACK's 15-point Gauss-Kronrod pair (qk15; Piessens et al.,
QUADPACK, Springer 1983): each interval's value is the Kronrod sum, its
error estimate the distance to the embedded 7-point Gauss sum. The half-line
is mapped onto [0, 1) by x = t/(1-t), dx = dt/(1-t)^2; the nodes are
symmetric, so these are the points QUADPACK's qk15i samples. The interval
with the largest estimate is bisected until the estimates sum to within
relative tolerance 1e-9, over at most 200 intervals. There is no
extrapolation, so the estimate suits smooth integrands: at an endpoint
singularity, such as the one the map makes at t = 1 from an algebraic tail
x^-p, it can fall short of the true error.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

# Kronrod abscissae in (0, 1), decreasing; the odd-indexed ones are the Gauss nodes
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTRE = 0.209482141084727828012999174891714
# 7-point Gauss weights at _XGK[1], _XGK[3], _XGK[5] and the centre
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTRE = 0.417959183673469387755102040816327

_REL_TOL = 1e-9
_MAX_INTERVALS = 200


class QuadratureError(RuntimeError):
    """An integral could not be evaluated to the requested tolerance."""


def _gauss_kronrod(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(K15, |K15 - G7|) for the integral of g over [a, b]."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = g(centre)
    kronrod = _WGK_CENTRE * fc
    gauss = _WG_CENTRE * fc
    for j, x in enumerate(_XGK):
        pair = g(centre - half * x) + g(centre + half * x)
        kronrod += _WGK[j] * pair
        if j % 2:
            gauss += _WG[j // 2] * pair
    return kronrod * half, abs(kronrod - gauss) * half


def integrate_radial(f: Callable[[float], float]) -> tuple[float, float]:
    """Integrate f over [0, inf).

    Returns (value, error_estimate) with the estimate at most 1e-9 * |value|.

    Raises QuadratureError if the integrand yields a non-finite sample, if
    bisection reaches t = 1 (where the map sends x to infinity, as it does
    for an integrand that decays too slowly), or if 200 intervals do not
    reach the tolerance.
    """

    def g(t: float) -> float:
        s = 1.0 - t
        if s == 0.0:
            raise QuadratureError("quadrature did not converge: bisection reached the end of the half-line")
        y = f(t / s)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand returned non-finite value at x={t / s!r}")
        return y / s / s

    value, error = _gauss_kronrod(g, 0.0, 1.0)
    # max-heap on the error estimate: (-error, a, b, value)
    intervals = [(-error, 0.0, 1.0, value)]
    while True:
        value = math.fsum(v for *_, v in intervals)
        error = math.fsum(-e for e, *_ in intervals)
        tolerance = _REL_TOL * abs(value)
        if error <= tolerance:
            return value, error
        if len(intervals) >= _MAX_INTERVALS:
            raise QuadratureError(
                f"quadrature did not converge: error estimate {error:.3g} exceeds {tolerance:.3g} "
                f"with {len(intervals)} subintervals"
            )
        _, a, b, _ = heapq.heappop(intervals)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            part, part_err = _gauss_kronrod(g, lo, hi)
            heapq.heappush(intervals, (-part_err, lo, hi, part))
