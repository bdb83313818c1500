"""The 8T cell: a read-decoupled alternative to the paper's 6T.

The paper's read failures exist because the 6T cell exposes its '0'
node to the precharged bitline through the access transistor.  The
canonical architectural fix — contemporaneous with the paper — is the
8T cell: a 6T storage core whose wordline port is used only for writes,
plus a two-transistor read buffer (a read-wordline transistor in series
with a driver gated by the storage node).  Reads never disturb the
cell, so the read-failure wall of Fig. 2a disappears; the price is
~30% cell area and a single-ended read.

This module reuses the 6T solvers for the shared mechanisms and adds
the read-buffer physics, so the two topologies can be compared under
identical variation, criteria, and body bias
(:func:`eight_t_failure_probabilities`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.factory import make_nmos
from repro.failures.criteria import FailureCriteria
from repro.sram.cell import CellGeometry, SixTCell
from repro.sram.metrics import OperatingConditions, compute_cell_metrics
from repro.sram.solver import bisect_monotone
from repro.stats.montecarlo import MonteCarloResult, probability_of
from repro.stats.sampling import importance_sample_dvt
from repro.technology.corners import ProcessCorner
from repro.technology.parameters import TechnologyParameters
from repro.technology.variation import RandomDopantFluctuation


@dataclass(frozen=True)
class EightTGeometry:
    """Sizing of the 8T read buffer (the core reuses CellGeometry).

    Attributes:
        w_read_driver: width of the storage-node-gated driver [m].
        w_read_access: width of the read-wordline transistor [m].
    """

    w_read_driver: float = 200e-9
    w_read_access: float = 200e-9

    def __post_init__(self) -> None:
        if self.w_read_driver <= 0 or self.w_read_access <= 0:
            raise ValueError("read-buffer widths must be positive")

    @property
    def area_overhead(self) -> float:
        """Rough area cost vs the 6T core (transistor-count based)."""
        return 2.0 / 6.0


@dataclass(frozen=True)
class EightTCell:
    """An 8T cell population: a 6T core plus a read buffer.

    The core's ``dvt`` samples drive the shared write/hold metrics; the
    buffer transistors get their own RDF deltas.
    """

    core: SixTCell
    buffer: EightTGeometry
    dvt_read_driver: np.ndarray | float = 0.0
    dvt_read_access: np.ndarray | float = 0.0

    @property
    def tech(self) -> TechnologyParameters:
        return self.core.tech

    def read_stack_current(
        self, vdd: float, vbody_n: float = 0.0
    ) -> np.ndarray:
        """Read-bitline discharge current [A] through the buffer stack.

        Both stack devices are on (stored '1' gates the driver, the
        read wordline gates the access device); the current is set by
        the series solution of the intermediate node.
        """
        corner = self.core.corner.dvt_inter
        driver = make_nmos(
            self.tech, self.buffer.w_read_driver,
            dvt=corner + np.asarray(self.dvt_read_driver, dtype=float),
        )
        access = make_nmos(
            self.tech, self.buffer.w_read_access,
            dvt=corner + np.asarray(self.dvt_read_access, dtype=float),
        )
        shape = np.broadcast_shapes(
            np.shape(driver.dvt) or (1,), np.shape(access.dvt) or (1,)
        )

        def net(vm: np.ndarray) -> np.ndarray:
            # Current into the intermediate node from the bitline minus
            # the driver pulling it to ground; decreasing in vm.
            i_in = access.current(vg=vdd, vd=vdd, vs=vm, vb=vbody_n)
            i_out = driver.current(vg=vdd, vd=vm, vs=0.0, vb=vbody_n)
            return i_in - i_out

        vm = bisect_monotone(net, 0.0, vdd, shape)
        return np.asarray(
            access.current(vg=vdd, vd=vdd, vs=vm, vb=vbody_n), dtype=float
        )


def sample_eight_t(
    tech: TechnologyParameters,
    rng: np.random.Generator,
    size: int,
    geometry: CellGeometry | None = None,
    buffer: EightTGeometry | None = None,
    corner: ProcessCorner | None = None,
    scale: float = 1.0,
) -> tuple[EightTCell, np.ndarray]:
    """Draw an 8T population; returns (cell, importance weights).

    With ``scale > 1`` the six core deltas come from the sigma-inflated
    proposal (shared likelihood-ratio weights); the buffer deltas are
    sampled plainly — they only affect the access metric, whose
    distribution is comfortably resolved without tail inflation.
    """
    geometry = geometry if geometry is not None else CellGeometry()
    buffer = buffer if buffer is not None else EightTGeometry()
    corner = corner if corner is not None else ProcessCorner(0.0)
    sample = importance_sample_dvt(tech, geometry, rng, size, scale)
    core = SixTCell(tech, geometry, corner, sample.dvt)
    rdf = RandomDopantFluctuation.from_devices(tech.nmos, tech.pmos)
    dvt_driver = rdf.sample(rng, buffer.w_read_driver, tech.length, size)
    dvt_access = rdf.sample(rng, buffer.w_read_access, tech.length, size)
    return (
        EightTCell(core, buffer, dvt_driver, dvt_access),
        sample.weights,
    )


def eight_t_failure_probabilities(
    cell: EightTCell,
    weights: np.ndarray,
    criteria: FailureCriteria,
    conditions: OperatingConditions,
) -> dict[str, MonteCarloResult]:
    """Per-mechanism failure probabilities of the 8T population.

    * read: structurally disturb-free (the storage node is never
      exposed) — reported as exactly zero;
    * write / hold: identical to the 6T core;
    * access: the read-stack current against the same minimum-current
      criterion as the 6T (same bitline budget).
    """
    metrics = compute_cell_metrics(cell.core, conditions)
    i_read = cell.read_stack_current(conditions.vdd, conditions.vbody_n)
    fails = {
        "read": np.zeros(cell.core.population, dtype=bool),
        "write": criteria.write_fails(metrics),
        "access": i_read < criteria.i_access_min,
        "hold": criteria.hold_fails(metrics),
    }
    fails["any"] = (
        fails["read"] | fails["write"] | fails["access"] | fails["hold"]
    )
    return {
        name: probability_of(indicator, weights)
        for name, indicator in fails.items()
    }
