"""Failure criteria on the static cell metrics, and their calibration.

A cell *fails* a mechanism when the corresponding margin falls below a
threshold:

* read:   ``v_trip_read - v_read     < delta_read``
* write:  ``t_write                  > t_write_max``
* access: ``i_access                 < i_access_min``
* hold:   ``(v_hold_one - v_hold_zero) / hold_rail < hold_fraction_min``

The deltas absorb everything the static model abstracts away (dynamic
disturb slack, sense-amplifier offset and timing, retention dwell): they
are the design-phase knobs.  Following the caption of the paper's
Fig. 2(b) — "the cell is sized to have equal probabilities for different
failure events at ZBB" — :func:`calibrate_criteria` picks each threshold
as the ``target``-quantile of the corresponding margin distribution at
the nominal corner with zero body/source bias, which makes all four
mechanisms hit exactly the target probability there.

This module deliberately has no dependency on the rest of
:mod:`repro.failures` so that :mod:`repro.sram.array` can import it
without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sram.cell import CellGeometry, SixTCell
from repro.sram.metrics import CellMetrics, OperatingConditions, compute_cell_metrics
from repro.stats.montecarlo import weighted_quantile
from repro.stats.sampling import importance_sample_dvt
from repro.technology.corners import ProcessCorner
from repro.technology.parameters import TechnologyParameters


@dataclass(frozen=True)
class FailureCriteria:
    """Pass/fail thresholds for the four parametric failure mechanisms."""

    #: Minimum read margin V_TRIPRD - V_READ [V].
    delta_read: float
    #: Maximum write time [s] (wordline pulse budget).
    t_write_max: float
    #: Minimum bitline discharge current [A].
    i_access_min: float
    #: Minimum retained differential as a fraction of the standby rail.
    hold_fraction_min: float

    def read_fails(self, metrics: CellMetrics) -> np.ndarray:
        """Boolean array: read failure per cell."""
        return metrics.read_margin < self.delta_read

    def write_fails(self, metrics: CellMetrics) -> np.ndarray:
        """Boolean array: write failure per cell."""
        return metrics.t_write > self.t_write_max

    def access_fails(self, metrics: CellMetrics) -> np.ndarray:
        """Boolean array: access failure per cell."""
        return metrics.i_access < self.i_access_min

    def hold_fails(self, metrics: CellMetrics) -> np.ndarray:
        """Boolean array: hold failure per cell."""
        return metrics.hold_margin_fraction < self.hold_fraction_min

    def any_fails(self, metrics: CellMetrics) -> np.ndarray:
        """Boolean array: cell fails *any* mechanism."""
        return (
            self.read_fails(metrics)
            | self.write_fails(metrics)
            | self.access_fails(metrics)
            | self.hold_fails(metrics)
        )


def calibrate_criteria(
    tech: TechnologyParameters,
    geometry=None,
    conditions: OperatingConditions | None = None,
    target: float = 1e-7,
    n_samples: int = 200_000,
    seed: int = 2006,
    scale: float = 2.0,
    hold_target: float | None = None,
) -> FailureCriteria:
    """Choose thresholds that equalise the four failure probabilities.

    At the nominal corner with zero body and source bias, each threshold
    is set to the ``target``-quantile of its margin distribution, so
    every mechanism fails with probability ``target`` there (the paper's
    equal-probability sizing).  The quantiles come from sigma-scaled
    importance sampling with likelihood-ratio weights, which resolves
    deep tails (the default 1e-7 keeps a redundancy-repaired 256KB
    memory essentially failure-free at the nominal corner, matching the
    paper's "negligible" region-B failure probability).

    Args:
        tech: technology card.
        geometry: cell geometry (default :class:`CellGeometry`).
        conditions: bias conditions; defaults to
            :meth:`OperatingConditions.nominal`.
        target: per-mechanism failure probability at the ZBB/nominal
            point.
        n_samples: weighted sample count.
        seed: RNG seed (deterministic calibration).
        scale: importance-sampling sigma inflation.
        hold_target: separate target for the hold mechanism; defaults to
            ``max(target, 1e-4)``.  The hold-margin distribution is
            bimodal — a *droop* branch (leakage eats into the retained
            differential) separated by a dynamically unreachable gap
            from the *flipped* branch — so quantiles deeper than the
            flip probability would jump across the gap and turn the
            criterion into "fail only if fully flipped", erasing the
            leakage-driven left side of the paper's hold bathtub.  The
            floor keeps the threshold on the droop branch.
    """
    if not 0.0 < target < 0.5:
        raise ValueError(f"target must be in (0, 0.5), got {target}")
    if hold_target is None:
        hold_target = max(target, 1e-4)
    if not 0.0 < hold_target < 0.5:
        raise ValueError(f"hold_target must be in (0, 0.5), got {hold_target}")
    geometry = geometry if geometry is not None else CellGeometry()
    conditions = (
        conditions if conditions is not None else OperatingConditions.nominal(tech)
    )
    rng = np.random.default_rng(seed)
    sample = importance_sample_dvt(tech, geometry, rng, n_samples, scale)
    cell = SixTCell(tech, geometry, ProcessCorner(0.0), sample.dvt)
    metrics = compute_cell_metrics(cell, conditions)
    w = sample.weights
    # t_write has +inf entries (static write failures); cap them so the
    # upper weighted quantile stays finite and well-ordered.
    t_write = np.where(
        np.isfinite(metrics.t_write), metrics.t_write, 1e6
    )
    return FailureCriteria(
        delta_read=weighted_quantile(metrics.read_margin, w, target),
        t_write_max=weighted_quantile(t_write, w, 1.0 - target),
        i_access_min=weighted_quantile(metrics.i_access, w, target),
        hold_fraction_min=weighted_quantile(
            metrics.hold_margin_fraction, w, hold_target
        ),
    )
