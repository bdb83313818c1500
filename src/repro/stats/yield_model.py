"""Yield metrics: parametric yield (paper Eq. 1) and leakage yield (Eqs. 3-4).

*Parametric yield* is the fraction of dies whose memory is repairable by
the available redundancy.  The chain (Section II, reference [3]): a
column is faulty if *any* of its cells fails; a memory chip is faulty if
the number of faulty columns exceeds the available redundant columns;
the yield is the expectation of ``1 - P_mem_fail`` over the inter-die
distribution (Eq. 1, generalised from the paper's three-region
decomposition to the full integral).

*Leakage yield* is the fraction of dies whose total memory leakage stays
below a maximum bound L_MAX; per corner it is the Gaussian tail
probability ``Phi((L_MAX - mu_MEM) / sigma_MEM)`` (Eq. 3), and the yield
is its expectation over the inter-die distribution (Eq. 4).

Both expectations are taken once, here, on the dense trapezoid grid of
:func:`~repro.stats.integration.dense_expectation`: the repair policies
under evaluation (three-level body bias, DAC-quantised source bias) are
piecewise constant in the corner, which defeats Gauss-Hermite
quadrature.  A caller passes only its policy — corner quantisation plus
the bias it chooses — as the per-corner callable.

Numerics: cell failure probabilities are tiny, so ``1 - (1-p)^n`` is
evaluated via ``expm1``/``log1p`` and the binomial survival function via
``scipy.stats.binom`` which is stable in the tails.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy import stats as sp_stats

from repro.observability.metrics import incr
from repro.stats.distributions import NormalDistribution
from repro.stats.integration import dense_expectation
from repro.technology.corners import ProcessCorner
from repro.technology.variation import InterDieDistribution

if TYPE_CHECKING:  # avoid a circular import with repro.sram.array
    from repro.sram.array import ArrayOrganization


def column_failure_probability(
    p_cell: float | np.ndarray, rows: int
) -> float | np.ndarray:
    """P(column faulty) = 1 - (1 - p_cell)^rows, computed stably."""
    if rows <= 0:
        raise ValueError(f"rows must be positive, got {rows}")
    p = np.clip(np.asarray(p_cell, dtype=float), 0.0, 1.0)
    result = -np.expm1(rows * np.log1p(-np.minimum(p, 1.0 - 1e-16)))
    result = np.where(p >= 1.0, 1.0, result)
    if np.isscalar(p_cell):
        return float(result)
    return result


def memory_failure_probability(
    p_cell: float, organization: "ArrayOrganization"
) -> float:
    """P(memory chip faulty) given per-cell failure probability.

    The chip fails when more than ``redundant_columns`` of its
    ``columns`` data columns are faulty (faulty columns are replaced by
    spares one-for-one).
    """
    p_col = float(column_failure_probability(p_cell, organization.rows))
    return float(
        sp_stats.binom.sf(
            organization.redundant_columns, organization.columns, p_col
        )
    )


def _checked(
    pass_probability: Callable[[ProcessCorner], float], scope: str
) -> Callable[[ProcessCorner], float]:
    """Wrap a yield integrand with estimator-health accounting.

    Purely observational — the value passes through untouched (no
    clamping, so yields are bit-identical with telemetry on or off),
    but every evaluation is counted and any value outside the [0, 1]
    probability range is flagged (``yield.out_of_range``): an
    out-of-range integrand means an upstream estimator, not the
    quadrature, has gone wrong.
    """

    def integrand(corner: ProcessCorner) -> float:
        value = pass_probability(corner)
        incr(f"{scope}.evaluations")
        if not 0.0 <= value <= 1.0:
            incr(f"{scope}.out_of_range")
        return value

    return integrand


def parametric_yield(
    p_cell_at_corner: Callable[[ProcessCorner], float],
    organization: "ArrayOrganization",
    distribution: InterDieDistribution,
) -> float:
    """Fraction of dies whose memory survives repair (paper Eq. 1).

    Args:
        p_cell_at_corner: the per-cell (union) failure probability at a
            corner, after the repair policy under evaluation has chosen
            its bias.
        organization: the memory organisation.
        distribution: the inter-die Vt distribution.
    """

    def pass_probability(corner: ProcessCorner) -> float:
        p_cell = float(p_cell_at_corner(corner))
        return 1.0 - memory_failure_probability(p_cell, organization)

    return dense_expectation(
        distribution, _checked(pass_probability, "yield.parametric")
    )


def leakage_yield(
    distribution: InterDieDistribution,
    array_leakage_at: Callable[[ProcessCorner], NormalDistribution],
    l_max: float,
) -> float:
    """Fraction of dies with total leakage below ``l_max`` (Eqs. 3-4).

    Args:
        distribution: the inter-die Vt distribution.
        array_leakage_at: the per-corner CLT Gaussian of the array
            leakage (or standby power), after the repair policy under
            evaluation has chosen its bias.
        l_max: the maximum allowed memory leakage (same unit).
    """
    if l_max <= 0:
        raise ValueError(f"l_max must be positive, got {l_max}")

    def pass_probability(corner: ProcessCorner) -> float:
        return float(array_leakage_at(corner).cdf(l_max))

    return dense_expectation(
        distribution, _checked(pass_probability, "yield.leakage")
    )
