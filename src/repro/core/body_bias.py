"""Self-repairing SRAM using adaptive body bias (paper Section III).

The pipeline of Fig. 4a: the leakage monitor measures the array's total
leakage, the comparators bin the die, and the body-bias generator
applies the matching NMOS body bias:

* LOW_VT (leaky) die  -> reverse body bias  (raises Vt: fixes read/hold
  failures and cuts subthreshold leakage);
* HIGH_VT (slow) die  -> forward body bias  (lowers Vt: fixes
  access/write failures, raises leakage back toward nominal);
* NOMINAL die         -> zero body bias.

Because the two corrections move both the failure probability and the
leakage of the outlying corners back toward the nominal die, the single
knob simultaneously improves parametric yield (Fig. 2c) and compresses
the inter-die leakage spread (Figs. 5b-5c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.monitor import CornerBin, LeakageMonitor
from repro.core.tables import FailureProbabilityTable
from repro.failures.analysis import CellFailureAnalyzer
from repro.sram.array import ArrayOrganization
from repro.sram.cell import CellGeometry, SixTCell, sample_cell_dvt
from repro.sram.leakage import cell_leakage
from repro.stats import yield_model
from repro.stats.distributions import NormalDistribution, array_leakage_distribution
from repro.technology.corners import ProcessCorner
from repro.technology.parameters import TechnologyParameters
from repro.technology.variation import InterDieDistribution


@dataclass(frozen=True)
class BodyBiasGenerator:
    """The three-level body-bias generator of the self-repairing SRAM.

    The default forward level is smaller in magnitude than the reverse
    one: body bias only reaches the NMOS devices, so a slow die's weak
    PMOS pull-ups stay weak and a large FBB (which erodes the read
    margin further) overshoots — +0.25 V balances the access/write
    recovery against the read cost across the realistic high-Vt range,
    while -0.4 V RBB is beneficial over the whole low-Vt range.

    Attributes:
        rbb: reverse-bias body voltage [V] (negative).
        fbb: forward-bias body voltage [V] (positive).
    """

    rbb: float = -0.4
    fbb: float = 0.25

    def __post_init__(self) -> None:
        if self.rbb >= 0.0:
            raise ValueError(f"rbb must be negative, got {self.rbb}")
        if self.fbb <= 0.0:
            raise ValueError(f"fbb must be positive, got {self.fbb}")

    def bias_for(self, bin: CornerBin) -> float:
        """Body voltage [V] applied for a comparator decision."""
        if bin is CornerBin.LOW_VT:
            return self.rbb
        if bin is CornerBin.HIGH_VT:
            return self.fbb
        return 0.0


@dataclass(frozen=True)
class RepairOutcome:
    """The result of self-repairing one die.

    Attributes:
        corner: the die's true inter-die corner.
        measured_leakage: array leakage seen by the monitor [A].
        bin: the comparator classification.
        vbody: applied NMOS body bias [V].
        p_cell_before / p_cell_after: union cell failure probability at
            ZBB and at the applied bias.
        p_memory_before / p_memory_after: memory failure probability
            (after redundancy) at ZBB and at the applied bias.
        leakage_before / leakage_after: mean array leakage [A] at ZBB
            and at the applied bias.
    """

    corner: ProcessCorner
    measured_leakage: float
    bin: CornerBin
    vbody: float
    p_cell_before: float
    p_cell_after: float
    p_memory_before: float
    p_memory_after: float
    leakage_before: float
    leakage_after: float


class SelfRepairingSRAM:
    """The full monitor -> comparator -> body-bias repair pipeline.

    Failure probabilities come from interpolated
    :class:`FailureProbabilityTable` instances, one per body-bias level,
    built lazily from the supplied analyzer; array leakage statistics
    come from cell-level Monte Carlo with CLT scaling.

    Args:
        analyzer: cell failure analyzer (carries tech, geometry,
            criteria, operating conditions).
        organization: the memory organisation (sets both the monitored
            cell count and the redundancy for yield).
        generator: body-bias levels.
        monitor: leakage monitor; by default calibrated for the array
            size with the standard corner boundary.
        leakage_samples: Monte-Carlo cells per leakage estimate.
        seed: RNG seed for leakage sampling.
    """

    def __init__(
        self,
        analyzer: CellFailureAnalyzer,
        organization: ArrayOrganization,
        generator: BodyBiasGenerator | None = None,
        monitor: LeakageMonitor | None = None,
        leakage_samples: int = 20_000,
        seed: int = 23,
        table_grid: int = 17,
        table_provider=None,
    ) -> None:
        self.analyzer = analyzer
        self.tech: TechnologyParameters = analyzer.tech
        self.geometry: CellGeometry = analyzer.geometry
        self.organization = organization
        self.generator = generator if generator is not None else BodyBiasGenerator()
        self.monitor = (
            monitor
            if monitor is not None
            else LeakageMonitor.calibrate_references(
                self.tech, self.geometry, organization.n_cells
            )
        )
        self.leakage_samples = leakage_samples
        self.seed = seed
        self.table_grid = table_grid
        #: Optional shared ``vbody -> FailureProbabilityTable`` factory so
        #: several repair pipelines (different array sizes) can reuse one
        #: expensive table set.
        self.table_provider = table_provider
        self._tables: dict[float, FailureProbabilityTable] = {}
        self._leakage_cache: dict[tuple[float, float], NormalDistribution] = {}

    # ------------------------------------------------------------------
    # Failure probability and leakage primitives
    # ------------------------------------------------------------------
    def _table(self, vbody: float) -> FailureProbabilityTable:
        key = round(vbody, 6)
        if key not in self._tables:
            if self.table_provider is not None:
                self._tables[key] = self.table_provider(key)
            else:
                conditions = self.analyzer.conditions.with_body_bias(vbody)
                self._tables[key] = FailureProbabilityTable(
                    self.analyzer, conditions, n_grid=self.table_grid
                )
        return self._tables[key]

    def cell_failure_probability(
        self, corner: ProcessCorner, vbody: float = 0.0
    ) -> float:
        """Union cell failure probability at (corner, body bias)."""
        return self._table(vbody).probability(corner, "any")

    def memory_failure_probability(
        self, corner: ProcessCorner, vbody: float = 0.0
    ) -> float:
        """Memory failure probability (after redundancy) at a corner."""
        return yield_model.memory_failure_probability(
            self.cell_failure_probability(corner, vbody), self.organization
        )

    def array_leakage(
        self, corner: ProcessCorner, vbody: float = 0.0
    ) -> NormalDistribution:
        """CLT Gaussian of the array leakage at (corner, body bias)."""
        key = (round(corner.dvt_inter, 9), round(vbody, 6))
        if key not in self._leakage_cache:
            rng = np.random.default_rng(
                (self.seed, hash(key) & 0xFFFFFFFF)
            )
            dvt = sample_cell_dvt(
                self.tech, self.geometry, rng, self.leakage_samples
            )
            cell = SixTCell(self.tech, self.geometry, corner, dvt)
            per_cell = cell_leakage(cell, vbody_n=vbody).total
            self._leakage_cache[key] = array_leakage_distribution(
                per_cell, self.organization.n_cells
            )
        return self._leakage_cache[key]

    # ------------------------------------------------------------------
    # The repair pipeline
    # ------------------------------------------------------------------
    def decide_bias(self, corner: ProcessCorner,
                    rng: np.random.Generator | None = None) -> tuple[float, CornerBin, float]:
        """Monitor + comparator decision for one die.

        With ``rng`` the measured leakage is a CLT draw (die-specific
        intra-die sample); without it the monitor sees the corner's mean
        leakage (the deterministic limit the yield integrals use).

        Returns (vbody, bin, measured leakage).
        """
        distribution = self.array_leakage(corner, vbody=0.0)
        if rng is None:
            measured = distribution.mean
        else:
            measured = float(distribution.sample(rng, 1)[0])
        bin = self.monitor.classify(measured)
        return self.generator.bias_for(bin), bin, measured

    def repair(
        self, corner: ProcessCorner, rng: np.random.Generator | None = None
    ) -> RepairOutcome:
        """Run the full pipeline on one die and report before/after."""
        vbody, bin, measured = self.decide_bias(corner, rng)
        return RepairOutcome(
            corner=corner,
            measured_leakage=measured,
            bin=bin,
            vbody=vbody,
            p_cell_before=self.cell_failure_probability(corner, 0.0),
            p_cell_after=self.cell_failure_probability(corner, vbody),
            p_memory_before=self.memory_failure_probability(corner, 0.0),
            p_memory_after=self.memory_failure_probability(corner, vbody),
            leakage_before=self.array_leakage(corner, 0.0).mean,
            leakage_after=self.array_leakage(corner, vbody).mean,
        )

    # ------------------------------------------------------------------
    # Yield metrics (paper Figs. 2c, 5c)
    # ------------------------------------------------------------------
    def parametric_yield(
        self,
        distribution: InterDieDistribution,
        repaired: bool = True,
    ) -> float:
        """Parametric yield over the inter-die distribution (Fig. 2c).

        ``repaired=False`` evaluates the ZBB baseline; ``repaired=True``
        lets the monitor pick the bias per corner (Fig. 2c's comparison).
        Corners are quantised to 1 mV.
        """

        def p_cell(corner: ProcessCorner) -> float:
            quantised = ProcessCorner(round(corner.dvt_inter, 3))
            vbody = self.decide_bias(quantised)[0] if repaired else 0.0
            return self.cell_failure_probability(quantised, vbody)

        return yield_model.parametric_yield(
            p_cell, self.organization, distribution
        )

    def leakage_yield(
        self,
        distribution: InterDieDistribution,
        l_max: float,
        repaired: bool = True,
    ) -> float:
        """Fraction of dies meeting the leakage bound (Fig. 5c).

        Corners are quantised to 5 mV so the per-corner Monte-Carlo
        leakage cache is reused across the dense integration grid and
        across sigma values.
        """

        def leakage(corner: ProcessCorner) -> NormalDistribution:
            quantised = ProcessCorner(round(corner.dvt_inter / 0.005) * 0.005)
            vbody = self.decide_bias(quantised)[0] if repaired else 0.0
            return self.array_leakage(quantised, vbody)

        return yield_model.leakage_yield(distribution, leakage, l_max)
