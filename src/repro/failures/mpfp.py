"""Most-probable-failure-point (FORM) estimation of cell failures.

The analytical alternative to Monte Carlo that the paper's reference
[3] builds on: in the 6-dimensional space of normalised threshold
deltas ``z_i = dVt_i / sigma_i`` the failure region of a mechanism is
approximately a half-space; the *most probable failure point* (MPFP) is
the point of the failure boundary closest to the origin, and the
first-order reliability estimate is

    P_fail ~ Phi(-beta),       beta = ||z_MPFP||

The MPFP search here is a simple constrained minimisation: walk down
the margin gradient (estimated by finite differences on the vectorised
solvers) until the failure boundary, then polish with a few
projected-gradient steps.  FORM is exact for a linear boundary and a
good few-percent approximation for the mildly curved SRAM margins; the
test suite compares it against importance-sampled Monte Carlo.

Beyond validation, the MPFP itself is diagnostic: its components say
*which transistors* a mechanism fails through (e.g. read failures live
along +dVt(NR)/-dVt(AXR)... the vector is returned for exactly that
kind of analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.failures.criteria import FailureCriteria
from repro.observability.metrics import incr
from repro.sram.cell import TRANSISTORS, CellGeometry, SixTCell, cell_sigma_vt
from repro.sram.metrics import OperatingConditions, compute_cell_metrics
from repro.sram.solver import (
    solve_access_current,
    solve_read_node,
    solve_read_trip,
    solve_write_time,
)
from repro.stats.distributions import normal_cdf
from repro.technology.corners import ProcessCorner
from repro.technology.parameters import TechnologyParameters

#: Finite-difference step in normalised-sigma units.
_FD_STEP = 0.05


@dataclass(frozen=True)
class MpfpResult:
    """A FORM estimate for one mechanism at one operating point.

    Attributes:
        beta: distance of the MPFP from the origin [sigmas].
        probability: the FORM estimate Phi(-beta).
        z: the MPFP in normalised coordinates, keyed by transistor.
        converged: the search ended on the failure boundary.
    """

    beta: float
    probability: float
    z: dict[str, float]
    converged: bool

    def dominant_transistors(self, count: int = 2) -> list[str]:
        """The transistors with the largest |z| components."""
        ranked = sorted(self.z, key=lambda name: -abs(self.z[name]))
        return ranked[:count]


class MpfpEstimator:
    """FORM failure estimation on the vectorised cell metrics.

    Args:
        tech: technology card.
        criteria: calibrated failure criteria.
        geometry: cell geometry.
        conditions: operating conditions.
    """

    def __init__(
        self,
        tech: TechnologyParameters,
        criteria: FailureCriteria,
        geometry: CellGeometry | None = None,
        conditions: OperatingConditions | None = None,
    ) -> None:
        self.tech = tech
        self.criteria = criteria
        self.geometry = geometry if geometry is not None else CellGeometry()
        self.conditions = (
            conditions
            if conditions is not None
            else OperatingConditions.nominal(tech)
        )
        self._sigmas = cell_sigma_vt(tech, self.geometry)

    # ------------------------------------------------------------------
    def _margin_function(
        self, mechanism: str, corner: ProcessCorner
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Margin (positive = pass) as a function of z batches (k, 6)."""
        criteria = self.criteria

        if mechanism == "hold":
            raise KeyError(
                "FORM does not apply to the hold mechanism: its limit "
                "state is the cliff-like loss of bistability (the margin "
                "is flat until the flip), which a first-order boundary "
                "cannot represent — use the importance-sampled analyzer."
            )
        if mechanism not in ("read", "write", "access"):
            raise KeyError(f"unknown mechanism {mechanism!r}")

        def margin(z: np.ndarray) -> np.ndarray:
            """Normalised margin: O(1) positive when passing."""
            z = np.atleast_2d(z)
            dvt = {
                name: z[:, i] * self._sigmas[name]
                for i, name in enumerate(TRANSISTORS)
            }
            cell = SixTCell(self.tech, self.geometry, corner, dvt)
            metrics = compute_cell_metrics(cell, self.conditions)
            if mechanism == "read":
                return (
                    metrics.read_margin - criteria.delta_read
                ) / self.conditions.vdd
            if mechanism == "write":
                t_write = np.where(
                    np.isfinite(metrics.t_write), metrics.t_write, 1e6
                )
                return (
                    criteria.t_write_max - t_write
                ) / criteria.t_write_max
            return (
                metrics.i_access - criteria.i_access_min
            ) / criteria.i_access_min

        return margin

    def _light_margins(
        self, corner: ProcessCorner, z: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Read/write/access margins for a z batch, skipping the hold
        fixed point.

        :func:`~repro.sram.metrics.compute_cell_metrics` spends most of
        its fixed cost in the standby Gauss–Seidel iteration, which the
        three FORM-able mechanisms never read — so the MPFP search runs
        on just the active-mode solvers (one vectorised batch for all
        mechanisms at once), an order of magnitude cheaper per
        iteration.  Margins are normalised exactly like
        :meth:`_margin_function`.
        """
        z = np.atleast_2d(z)
        dvt = {
            name: z[:, i] * self._sigmas[name]
            for i, name in enumerate(TRANSISTORS)
        }
        cell = SixTCell(self.tech, self.geometry, corner, dvt)
        vdd = self.conditions.vdd
        vb = self.conditions.vbody_n
        incr("solver.calls", z.shape[0])
        incr("solver.batches")
        v_read = solve_read_node(cell, vdd, vb)
        read_margin = solve_read_trip(cell, vdd, vb) - v_read
        t_write = solve_write_time(cell, vdd, vb)
        t_write = np.where(np.isfinite(t_write), t_write, 1e6)
        i_access = solve_access_current(cell, vdd, vb, v_read=v_read)
        criteria = self.criteria
        return {
            "read": (read_margin - criteria.delta_read) / vdd,
            "write": (
                criteria.t_write_max - t_write
            ) / criteria.t_write_max,
            "access": (
                i_access - criteria.i_access_min
            ) / criteria.i_access_min,
        }

    def direction_seeds(
        self,
        corner: ProcessCorner = ProcessCorner(0.0),
        mechanisms: tuple[str, ...] = ("read", "write", "access"),
        max_iterations: int = 10,
        tolerance: float = 5e-3,
    ) -> dict[str, np.ndarray]:
        """Approximate MPFP z-vectors for seeding importance sampling.

        The same HL-RF iteration as :meth:`find_mpfp`, but run for all
        requested mechanisms *simultaneously* on the light (hold-free)
        margins — every iteration evaluates one batch of
        ``len(mechanisms) * 13`` cells through the vectorised active-
        mode solvers — and stopped early: a proposal seed only needs
        the failure direction to a few percent, not a polished
        reliability index.  Mechanisms whose gradient degenerates (or
        that FORM cannot represent, e.g. ``hold``) are simply absent
        from the result; callers fall back to cross-entropy shifts.
        """
        wanted = [m for m in mechanisms if m in ("read", "write", "access")]
        if not wanted:
            return {}
        d = len(TRANSISTORS)
        points = {m: np.zeros(d) for m in wanted}
        active = set(wanted)
        steps = np.zeros((2 * d, d))
        for i in range(d):
            steps[2 * i, i] = _FD_STEP
            steps[2 * i + 1, i] = -_FD_STEP
        for _ in range(max_iterations):
            if not active:
                break
            batch_mechs = sorted(active)
            batch = np.vstack(
                [
                    np.vstack([points[m], points[m] + steps])
                    for m in batch_mechs
                ]
            )
            values = self._light_margins(corner, batch)
            for j, m in enumerate(batch_mechs):
                rows = values[m][j * (2 * d + 1): (j + 1) * (2 * d + 1)]
                g0 = float(rows[0])
                gradient = (rows[1::2] - rows[2::2]) / (2 * _FD_STEP)
                norm2 = float(np.dot(gradient, gradient))
                if norm2 < 1e-24:
                    active.discard(m)
                    continue
                z_new = (
                    (np.dot(gradient, points[m]) - g0) * gradient / norm2
                )
                moved = float(np.linalg.norm(z_new - points[m]))
                points[m] = z_new
                if moved < tolerance:
                    active.discard(m)
        return {
            m: z for m, z in points.items()
            if np.linalg.norm(z) > 1e-6 and np.all(np.isfinite(z))
        }

    def find_mpfp(
        self,
        mechanism: str,
        corner: ProcessCorner = ProcessCorner(0.0),
        max_iterations: int = 40,
        tolerance: float = 1e-3,
    ) -> MpfpResult:
        """Locate the MPFP of ``mechanism`` at ``corner``.

        The search is the classic HL-RF style iteration: estimate the
        margin gradient by central differences (batched through the
        vectorised solvers — one batch of 13 cell evaluations per
        step), step to the linearised boundary, and repeat until the
        point stops moving.
        """
        margin = self._margin_function(mechanism, corner)
        d = len(TRANSISTORS)
        z = np.zeros(d)
        converged = False
        for _ in range(max_iterations):
            # Batch: the point itself plus +/- steps per dimension.
            batch = [z]
            for i in range(d):
                step = np.zeros(d)
                step[i] = _FD_STEP
                batch.append(z + step)
                batch.append(z - step)
            values = margin(np.array(batch))
            g0 = float(values[0])
            gradient = (values[1::2] - values[2::2]) / (2 * _FD_STEP)
            norm2 = float(np.dot(gradient, gradient))
            if norm2 < 1e-24:
                break
            # HL-RF update: project onto the linearised limit state.
            z_new = (np.dot(gradient, z) - g0) * gradient / norm2
            if np.linalg.norm(z_new - z) < tolerance:
                z = z_new
                converged = True
                break
            z = z_new
        beta = float(np.linalg.norm(z))
        # Sign: if the origin itself fails, report beta <= 0 (P >= 0.5).
        g_origin = float(margin(np.zeros((1, d)))[0])
        if g_origin < 0:
            beta = -beta
        return MpfpResult(
            beta=beta,
            probability=float(normal_cdf(-beta)),
            z={name: float(z[i]) for i, name in enumerate(TRANSISTORS)},
            converged=converged,
        )
