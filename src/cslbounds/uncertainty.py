"""Algebra of central values with asymmetric one-sigma errors.

Errors are treated as independent and Gaussian: combination is in
quadrature, separately for the up and down sides, and subtraction pairs
opposite sides because a negative term turns an upward fluctuation of the
subtrahend into a downward one of the difference. Operands are finite, so a
non-finite result is an overflow and raises OverflowError.
"""

from __future__ import annotations

import math

from .records import Record, finite, non_negative


class AsymmetricValue(Record):
    """central +err_up/-err_down; both errors are magnitudes."""

    central: float = finite()
    err_up: float = non_negative(0.0)
    err_down: float = non_negative(0.0)

    def display(self) -> str:
        parts = (display_number(x) for x in (self.central, self.err_up, self.err_down))
        return "{} +{}/-{}".format(*parts)


def display_number(x: float) -> str:
    """Fixed point with one decimal below 1e15 in magnitude; above it, scientific
    notation with 6 significant digits, where fixed point would print every integer digit."""
    return f"{x:.1f}" if abs(x) < 1e15 else f"{x:.5e}"


def _finite(op: str, central: float, err_up: float, err_down: float) -> AsymmetricValue:
    if not (math.isfinite(central) and math.isfinite(err_up) and math.isfinite(err_down)):
        raise OverflowError(f"{op} overflowed (central={central!r}, err_up={err_up!r}, err_down={err_down!r})")
    return AsymmetricValue(central, err_up, err_down)


def combine_quadrature(a: AsymmetricValue, b: AsymmetricValue) -> AsymmetricValue:
    """Merge two error pairs on the same measurement (e.g. stat and syst)."""
    if a.central != b.central:
        raise ValueError("combine_quadrature merges errors of one measurement; centrals must match")
    return _finite("combine_quadrature", a.central, math.hypot(a.err_up, b.err_up), math.hypot(a.err_down, b.err_down))


def scale(v: AsymmetricValue, factor: float) -> AsymmetricValue:
    """Multiply central and both errors by a positive factor."""
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"scale factor must be positive (got {factor!r})")
    return _finite("scale", v.central * factor, v.err_up * factor, v.err_down * factor)


def add(a: AsymmetricValue, b: AsymmetricValue) -> AsymmetricValue:
    """Sum of independent values; same-sided errors add in quadrature."""
    return _finite("add", a.central + b.central, math.hypot(a.err_up, b.err_up), math.hypot(a.err_down, b.err_down))


def subtract(a: AsymmetricValue, b: AsymmetricValue) -> AsymmetricValue:
    """Difference a - b; b enters negatively so its error sides swap."""
    return _finite("subtract", a.central - b.central, math.hypot(a.err_up, b.err_down), math.hypot(a.err_down, b.err_up))


def one_sided_upper_limit(v: AsymmetricValue, n_sigma: float) -> float:
    """central + n_sigma * err_up.

    Only the upward error is relevant when the signal can only add counts.
    The central value is not clipped at zero.
    """
    if not (math.isfinite(n_sigma) and n_sigma >= 0):
        raise ValueError(f"n_sigma must be non-negative (got {n_sigma!r})")
    limit = v.central + n_sigma * v.err_up
    if not math.isfinite(limit):
        raise OverflowError(f"one_sided_upper_limit overflowed ({v.central!r} + {n_sigma!r} * {v.err_up!r})")
    return limit
