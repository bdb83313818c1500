"""Expectations over the inter-die distribution (paper Eqs. 1, 4).

Yields are expectations of per-corner quantities over the Gaussian
inter-die Vt distribution: tens of corner evaluations instead of
thousands of sampled dies — the difference between seconds and hours
for the sigma-sweep figures.  :func:`dense_expectation` is the one the
yield integrals of :mod:`repro.stats.yield_model` use;
:func:`expect_over_corners` (Gauss-Hermite) needs only ~15 nodes, but
only for smooth integrands.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.technology.corners import ProcessCorner
from repro.technology.variation import InterDieDistribution


def expect_over_corners(
    distribution: InterDieDistribution,
    per_corner: Callable[[ProcessCorner], float],
    order: int = 15,
) -> float:
    """E[per_corner(Vt_inter)] by Gauss-Hermite quadrature.

    Args:
        distribution: the inter-die Vt distribution.
        per_corner: maps a corner to a scalar.
        order: quadrature order (nodes).
    """
    if distribution.sigma == 0.0:
        return float(per_corner(ProcessCorner(distribution.mean)))
    shifts, probabilities = distribution.quadrature(order)
    values = np.array([per_corner(ProcessCorner(float(s))) for s in shifts])
    return float(np.dot(probabilities, values))


def dense_expectation(
    distribution: InterDieDistribution,
    per_corner: Callable[[ProcessCorner], float],
    span_sigmas: float = 4.0,
    n_points: int = 81,
) -> float:
    """E[per_corner(Vt_inter)] on a dense trapezoid grid.

    Gauss-Hermite assumes a smooth integrand; post-silicon *policies*
    (three-level body bias, DAC-quantised source bias) are piecewise
    constant in the corner, which defeats spectral accuracy.  A dense
    trapezoid over +/- ``span_sigmas`` handles the discontinuities at
    the cost of more (cheap, usually cached/interpolated) corner
    evaluations.
    """
    if distribution.sigma == 0.0:
        return float(per_corner(ProcessCorner(distribution.mean)))
    if n_points < 3:
        raise ValueError(f"n_points must be >= 3, got {n_points}")
    shifts = distribution.mean + distribution.sigma * np.linspace(
        -span_sigmas, span_sigmas, n_points
    )
    density = distribution.pdf(shifts)
    weights = density / np.trapezoid(density, shifts)
    values = np.array([per_corner(ProcessCorner(float(s))) for s in shifts])
    return float(np.trapezoid(weights * values, shifts))
