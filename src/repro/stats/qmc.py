"""Quasi-Monte-Carlo sampling of the cell variation space.

For *smooth* statistics of the cell population (mean leakage, margin
moments — the inputs to the CLT array model and the monitor
calibration) a scrambled Sobol sequence converges like ~1/N instead of
the 1/sqrt(N) of independent sampling, cutting the sample budget for a
given accuracy by an order of magnitude.

For *failure probabilities* the integrand is an indicator (not smooth),
so the QMC advantage shrinks; the importance sampler in
:mod:`repro.stats.sampling` remains the right tool there.  The
convergence comparison lives in ``tests/test_qmc.py``.
"""

from __future__ import annotations

import numpy as np

from repro.sram.cell import TRANSISTORS, CellGeometry, cell_sigma_vt
from repro.technology.parameters import TechnologyParameters


def sobol_cell_dvt(
    tech: TechnologyParameters,
    geometry: CellGeometry,
    size: int,
    seed: int = 0,
    scramble: bool = True,
) -> dict[str, np.ndarray]:
    """Draw ``size`` cells' Vt deltas from a scrambled Sobol sequence.

    The six transistor deltas are one 6-dimensional low-discrepancy
    point set mapped through the Gaussian inverse CDF with the Pelgrom
    sigmas.  ``size`` is rounded up to the next power of two internally
    (Sobol balance) and truncated back, which preserves most of the
    discrepancy advantage.

    Returns the same structure as
    :func:`repro.sram.cell.sample_cell_dvt`.
    """
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    from scipy.stats import norm, qmc  # the only scipy.stats user

    sigmas = cell_sigma_vt(tech, geometry)
    sampler = qmc.Sobol(d=len(TRANSISTORS), scramble=scramble, seed=seed)
    m = int(np.ceil(np.log2(size)))
    points = sampler.random_base2(m)[:size]
    # Keep strictly inside (0, 1) for the inverse CDF.
    eps = 1e-12
    points = np.clip(points, eps, 1.0 - eps)
    normals = norm.ppf(points)
    return {
        name: normals[:, i] * sigmas[name]
        for i, name in enumerate(TRANSISTORS)
    }
