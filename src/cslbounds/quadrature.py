"""Adaptive quadrature for radial integrands on finite or half-line domains."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate


class QuadratureError(RuntimeError):
    """An integral could not be evaluated to the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be positive (got {self.rel_tol!r})")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0):
            raise ValueError(f"abs_tol must be non-negative (got {self.abs_tol!r})")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be at least 1 (got {self.max_subdivisions!r})")


DEFAULT_QUAD = QuadratureSpec()


def integrate_radial(
    f: Callable[[float], float],
    lower: float,
    upper: float = math.inf,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> tuple[float, float]:
    """Integrate f over [lower, upper]; upper may be infinite.

    Returns (value, error_estimate) with the estimate bounded by
    max(rel_tol * |value|, abs_tol). Semi-infinite domains are handled by
    the underlying adaptive routine's rational change of variable.

    Raises QuadratureError if the integrand yields a non-finite sample or
    the subdivision budget is exhausted before convergence.
    """
    if not math.isfinite(lower):
        raise ValueError("lower limit must be finite")
    if not upper > lower:
        raise ValueError("upper limit must exceed lower limit")

    def checked(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand returned non-finite value at x={x!r}")
        return y

    result = integrate.quad(
        checked,
        lower,
        upper,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(result) > 3:
        # quad appends a diagnostic message when it could not converge
        raise QuadratureError(f"quadrature did not converge: {result[3].strip()}")
    value, error = result[0], result[1]
    return value, error

