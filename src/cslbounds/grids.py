"""Evenly spaced grids as lists of Python floats.

Point i of a linear grid is i * step + lo, and its last point is hi exactly.
A log grid raises 10.0 to each point of a linear grid of exponents with the
C library's `pow`, so its points do not depend on the SIMD kernels a CPU
offers.
"""

from __future__ import annotations


def linspace(lo: float, hi: float, points: int) -> list[float]:
    """`points` (at least 2) evenly spaced values from lo to hi, both included."""
    step = (hi - lo) / (points - 1)
    grid = [i * step + lo for i in range(points - 1)]
    grid.append(hi)
    return grid


def logspace(lo_exponent: float, hi_exponent: float, points: int) -> list[float]:
    """10**y for y on linspace(lo_exponent, hi_exponent, points), each exponent computed
    as linspace computes it."""
    step = (hi_exponent - lo_exponent) / (points - 1)
    try:
        grid = [10.0 ** (i * step + lo_exponent) for i in range(points - 1)]
        grid.append(10.0**hi_exponent)
    except OverflowError:
        raise OverflowError(f"log grid overflowed: 10**{hi_exponent!r} is beyond the float range") from None
    return grid
