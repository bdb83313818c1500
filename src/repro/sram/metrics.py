"""Static failure metrics of the 6T cell (the paper's Section II).

The four parametric failure mechanisms map to four static margins:

* **read**:   ``read_margin  = V_TRIPRD - V_READ``  — the read disturb
  must stay below the flip threshold;
* **write**:  ``write_margin = V_TRIPWR - V_WR``    — the written node
  must be pulled below the opposite inverter's trip point;
* **access**: ``i_access``                          — the bitline
  discharge current sets the access time, so slow cells fail a
  minimum-current criterion;
* **hold**:   ``hold_margin  = V_HOLD_1 - V_HOLD_0`` — the retained
  differential of the standby fixed point.  Leakage through the off
  pull-down droops the '1' node; when the droop approaches the flip
  threshold of the opposite inverter the feedback collapses the
  differential, so this one number captures both of the paper's hold
  mechanisms (leakage droop at the low-Vt corner, the rising trip point
  at the high-Vt corner).

:func:`compute_cell_metrics` evaluates all of them, vectorised over a
Monte-Carlo cell population.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.observability.metrics import incr
from repro.sram.cell import SixTCell
from repro.sram.solver import (
    solve_access_current,
    solve_hold_state,
    solve_hold_trip,
    solve_read_node,
    solve_read_trip,
    solve_write_node,
    solve_write_time,
    solve_write_trip,
)
from repro.technology.parameters import TechnologyParameters


@dataclass(frozen=True)
class OperatingConditions:
    """Bias conditions for metric evaluation.

    Attributes:
        vdd: active-mode supply [V].
        vdd_standby: standby-mode supply [V] (the paper's "lower supply
            voltage" at which hold failures are assessed).
        vsb: source-line bias [V] in standby (the ASB knob).
        vbody_n: NMOS body terminal voltage [V] (the ABB knob; negative
            = reverse body bias, positive = forward body bias).
    """

    vdd: float = 1.0
    vdd_standby: float = 0.3
    vsb: float = 0.0
    vbody_n: float = 0.0

    @classmethod
    def nominal(cls, tech: TechnologyParameters) -> "OperatingConditions":
        """Default conditions: voltage-scaled retention standby.

        The hold metric is assessed at 30% of VDD — the "lower supply
        voltage" standby of the paper's Section II, where data retention
        is genuinely at risk and the leakage-droop / body-bias physics of
        Figs. 2a-2b play out.
        """
        return cls(vdd=tech.vdd, vdd_standby=0.3 * tech.vdd, vsb=0.0, vbody_n=0.0)

    @classmethod
    def source_biased_standby(
        cls, tech: TechnologyParameters, vsb: float = 0.0
    ) -> "OperatingConditions":
        """Conditions for the Section IV source-biasing experiments.

        Source biasing keeps a higher standby supply (80% of VDD here)
        and raises the cell source line instead; the ASB calibration
        sweeps ``vsb`` up to the largest retention-safe value.
        """
        return cls(vdd=tech.vdd, vdd_standby=0.8 * tech.vdd, vsb=vsb, vbody_n=0.0)

    def with_body_bias(self, vbody_n: float) -> "OperatingConditions":
        """Copy with a different NMOS body bias."""
        return OperatingConditions(self.vdd, self.vdd_standby, self.vsb, vbody_n)

    def with_source_bias(self, vsb: float) -> "OperatingConditions":
        """Copy with a different standby source bias."""
        return OperatingConditions(self.vdd, self.vdd_standby, vsb, self.vbody_n)


@dataclass(frozen=True)
class CellMetrics:
    """All static metrics for a cell population (arrays of shape (n,))."""

    v_read: np.ndarray
    v_trip_read: np.ndarray
    v_write: np.ndarray
    v_trip_write: np.ndarray
    t_write: np.ndarray
    i_access: np.ndarray
    v_hold_one: np.ndarray
    v_hold_zero: np.ndarray
    v_trip_hold: np.ndarray
    #: Effective standby rail vdd_standby - vsb [V] (scalar broadcast).
    hold_rail: float

    @property
    def read_margin(self) -> np.ndarray:
        """V_TRIPRD - V_READ [V]; read failure when this is too small."""
        return self.v_trip_read - self.v_read

    @property
    def write_margin(self) -> np.ndarray:
        """V_TRIPWR - V_WR [V]; write failure when this is too small."""
        return self.v_trip_write - self.v_write

    @property
    def hold_margin(self) -> np.ndarray:
        """Retained differential V_HOLD_1 - V_HOLD_0 [V].

        Hold failure when this collapses: the standby fixed point has
        lost (or is about to lose) its bistability.
        """
        return self.v_hold_one - self.v_hold_zero

    @property
    def hold_margin_fraction(self) -> np.ndarray:
        """Retained differential as a fraction of the effective rail.

        Normalising by ``vdd_standby - vsb`` makes one calibrated
        threshold meaningful across retention supplies *and* source-bias
        levels: a healthy cell retains nearly the full rail, and the
        leakage droop / flip collapse shows up as a falling fraction.
        """
        return (self.v_hold_one - self.v_hold_zero) / self.hold_rail


def compute_cell_metrics(
    cell: SixTCell, conditions: OperatingConditions
) -> CellMetrics:
    """Evaluate every static metric for ``cell`` under ``conditions``.

    Read/write/access metrics use the active supply with the body bias
    applied; hold metrics use the standby supply, source bias and body
    bias.  All outputs broadcast to the cell population shape.
    """
    vdd = conditions.vdd
    vb = conditions.vbody_n
    incr("solver.calls", cell.population)
    incr("solver.batches")
    v_read = solve_read_node(cell, vdd, vb)
    v_trip_read = solve_read_trip(cell, vdd, vb)
    v_write = solve_write_node(cell, vdd, vb)
    v_trip_write = solve_write_trip(cell, vdd, vb)
    t_write = solve_write_time(cell, vdd, vb, v_trip=v_trip_write)
    i_access = solve_access_current(cell, vdd, vb, v_read=v_read)
    v_hold_one, v_hold_zero = solve_hold_state(
        cell, conditions.vdd_standby, conditions.vsb, vb
    )
    v_trip_hold = solve_hold_trip(
        cell, conditions.vdd_standby, conditions.vsb, vb
    )
    return CellMetrics(
        v_read=np.atleast_1d(v_read),
        v_trip_read=np.atleast_1d(v_trip_read),
        v_write=np.atleast_1d(v_write),
        v_trip_write=np.atleast_1d(v_trip_write),
        t_write=np.atleast_1d(t_write),
        i_access=np.atleast_1d(i_access),
        v_hold_one=np.atleast_1d(v_hold_one),
        v_hold_zero=np.atleast_1d(v_hold_zero),
        v_trip_hold=np.atleast_1d(v_trip_hold),
        hold_rail=conditions.vdd_standby - conditions.vsb,
    )


def compute_hold_margin(
    cell: SixTCell, conditions: OperatingConditions
) -> np.ndarray:
    """Hold margin only — the hot path for source-bias calibration."""
    incr("solver.calls", cell.population)
    incr("solver.batches")
    v_hold_one, v_hold_zero = solve_hold_state(
        cell, conditions.vdd_standby, conditions.vsb, conditions.vbody_n
    )
    return np.atleast_1d(v_hold_one - v_hold_zero)
