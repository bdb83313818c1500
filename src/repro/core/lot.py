"""Production-lot simulation of the full post-silicon flow.

The downstream view of everything in this library: draw a lot of dies
from the inter-die distribution and push each through the paper's
manufacturing flow —

1. **monitor & repair**: measure the array leakage (a CLT draw for the
   die), bin the corner, apply the body bias;
2. **parametric test**: is the die's (post-bias) cell failure rate
   repairable by the column redundancy?  Scrap otherwise;
3. **ASB calibration**: find the die's standby source bias (statistical
   BIST model at lot scale);
4. **final binning**: good-as-is / repaired / scrap, with per-die
   standby power.

The result is what a product engineer reads off a lot report: yield by
bin, the power distribution of shipped parts, and the average BIST
effort.  Exercised in ``examples/full_post_silicon_tuning.py`` and the
test suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.checkpoint import resumable_map
from repro.core.body_bias import SelfRepairingSRAM
from repro.core.monitor import CornerBin
from repro.core.source_bias import SourceBiasDAC
from repro.observability import diagnostics
from repro.observability.log import get_logger
from repro.observability.metrics import incr
from repro.observability.tracing import trace
from repro.parallel.cache import fingerprint
from repro.stats.montecarlo import MonteCarloResult
from repro.power.standby import die_standby_power
from repro.sram.metrics import OperatingConditions
from repro.technology.corners import ProcessCorner
from repro.technology.variation import InterDieDistribution

if TYPE_CHECKING:  # pragma: no cover - hint-only imports
    from repro.checkpoint import CheckpointStore
    from repro.parallel.executor import ParallelExecutor

_log = get_logger("core.lot")


def _die_task(task) -> "DieRecord":
    """Worker entry point: one die through the flow (picklable).

    The task carries its own :class:`~numpy.random.SeedSequence`, so
    the record is a pure function of the payload — identical whether it
    runs inline or in any worker process.
    """
    simulator, corner, seed_seq = task
    return simulator.process_die(corner, np.random.default_rng(seed_seq))


@dataclass(frozen=True)
class DieRecord:
    """One die's journey through the flow.

    Attributes:
        corner: true inter-die shift [V] (unknown to the flow).
        bin: the monitor's corner classification.
        vbody: applied body bias [V].
        vsb: calibrated standby source bias [V]; 0 if scrapped.
        p_memory: post-repair memory failure probability.
        shipped: passed the parametric test.
        standby_power: sampled standby power [W] at the final point.
    """

    corner: float
    bin: CornerBin
    vbody: float
    vsb: float
    p_memory: float
    shipped: bool
    standby_power: float


def _encode_die(record: DieRecord) -> dict:
    """A :class:`DieRecord` as a JSON-serialisable checkpoint entry."""
    return {
        "corner": record.corner,
        "bin": record.bin.value,
        "vbody": record.vbody,
        "vsb": record.vsb,
        "p_memory": record.p_memory,
        "shipped": record.shipped,
        "standby_power": record.standby_power,
    }


def _decode_die(raw: dict) -> DieRecord:
    """Rebuild a :class:`DieRecord` from its checkpoint entry."""
    return DieRecord(
        corner=float(raw["corner"]),
        bin=CornerBin(raw["bin"]),
        vbody=float(raw["vbody"]),
        vsb=float(raw["vsb"]),
        p_memory=float(raw["p_memory"]),
        shipped=bool(raw["shipped"]),
        standby_power=float(raw["standby_power"]),
    )


@dataclass
class LotReport:
    """Aggregate statistics of a simulated lot."""

    dies: list[DieRecord] = field(default_factory=list)

    @property
    def n_dies(self) -> int:
        return len(self.dies)

    @property
    def yield_fraction(self) -> float:
        """Shipped dies / total."""
        if not self.dies:
            return 0.0
        return sum(d.shipped for d in self.dies) / self.n_dies

    def yield_result(self) -> MonteCarloResult:
        """The lot yield as a binomial estimate with its Wilson CI.

        The lot is itself a Monte-Carlo experiment over dies; this is
        its estimator-health view — with 10 dies a "90% yield" spans
        roughly 60-98% at 95% confidence, and the report says so.
        """
        shipped = sum(d.shipped for d in self.dies)
        return MonteCarloResult.from_binomial(shipped, self.n_dies)

    @property
    def repaired_fraction(self) -> float:
        """Shipped dies that needed a non-zero body bias."""
        shipped = [d for d in self.dies if d.shipped]
        if not shipped:
            return 0.0
        return sum(d.vbody != 0.0 for d in shipped) / len(shipped)

    def shipped_power(self) -> np.ndarray:
        """Standby power [W] of every shipped die."""
        return np.array(
            [d.standby_power for d in self.dies if d.shipped]
        )

    def rows(self) -> list[str]:
        """A lot-report summary table."""
        power = self.shipped_power()
        ci = self.yield_result()
        lines = [
            f"lot size {self.n_dies}: yield {100 * self.yield_fraction:.1f}%"
            f" (95% CI {100 * ci.ci_low:.1f}-{100 * ci.ci_high:.1f}%,"
            f" {100 * self.repaired_fraction:.0f}% of shipped parts"
            " needed body-bias repair)",
        ]
        if power.size:
            lines.append(
                f"shipped standby power: mean {power.mean() * 1e6:.1f} uW, "
                f"p95 {np.quantile(power, 0.95) * 1e6:.1f} uW"
            )
        by_bin: dict[str, int] = {}
        for die in self.dies:
            by_bin[die.bin.value] = by_bin.get(die.bin.value, 0) + 1
        lines.append(
            "corner bins: " + ", ".join(
                f"{name}={count}" for name, count in sorted(by_bin.items())
            )
        )
        return lines


class LotSimulator:
    """Simulates a lot of dies through monitor -> repair -> test -> ASB.

    Args:
        pipeline: the self-repairing pipeline (supplies the monitor, the
            bias generator, the failure tables, and the organisation).
        hold_table: the ASB hold-probability surface
            (:class:`repro.experiments.asb.HoldProbabilityTable`).
        dac: source-bias DAC.
        asb_conditions: standby conditions for power accounting.
        p_memory_limit: scrap threshold on the post-repair memory
            failure probability (a die whose repaired failure odds
            exceed this is not shipped).
    """

    def __init__(
        self,
        pipeline: SelfRepairingSRAM,
        hold_table,
        dac: SourceBiasDAC | None = None,
        asb_conditions: OperatingConditions | None = None,
        p_memory_limit: float = 0.05,
    ) -> None:
        self.pipeline = pipeline
        self.hold_table = hold_table
        self.dac = dac if dac is not None else SourceBiasDAC()
        self.asb_conditions = (
            asb_conditions
            if asb_conditions is not None
            else OperatingConditions.source_biased_standby(pipeline.tech)
        )
        if not 0.0 < p_memory_limit < 1.0:
            raise ValueError("p_memory_limit must be in (0, 1)")
        self.p_memory_limit = p_memory_limit
        self._power_cache: dict[tuple[float, float], object] = {}

    def _power(self, corner: float, vsb: float):
        key = (round(corner, 3), round(vsb, 3))
        if key not in self._power_cache:
            seed = np.random.SeedSequence(
                entropy=[
                    101,
                    int(round(key[0] * 1e3)) & 0xFFFFFFFF,
                    int(round(key[1] * 1e3)) & 0xFFFFFFFF,
                ]
            )
            self._power_cache[key] = die_standby_power(
                self.pipeline.tech,
                self.pipeline.geometry,
                ProcessCorner(key[0]),
                self.pipeline.organization.n_cells,
                self.asb_conditions.with_source_bias(key[1]),
                n_samples=4_000,
                rng=np.random.default_rng(seed),
            )
        return self._power_cache[key]

    @trace("lot.die")
    def process_die(
        self, corner: ProcessCorner, rng: np.random.Generator
    ) -> DieRecord:
        """Run one die through the complete flow."""
        incr("lot.dies")
        # Stage 1: monitor (noisy per-die measurement) and repair.
        vbody, bin, _ = self.pipeline.decide_bias(corner, rng)
        quantised = ProcessCorner(round(corner.dvt_inter, 3))
        p_memory = self.pipeline.memory_failure_probability(quantised, vbody)
        shipped = p_memory <= self.p_memory_limit
        # Stage 2: ASB calibration only for shipped dies.
        vsb = 0.0
        if shipped:
            vsb = self.hold_table.adaptive_vsb(
                quantised.dvt_inter, self.pipeline.organization, self.dac
            )
        power = float(
            self._power(quantised.dvt_inter, vsb).sample(rng, 1)[0]
        )
        incr("lot.shipped" if shipped else "lot.scrapped")
        return DieRecord(
            corner=corner.dvt_inter,
            bin=bin,
            vbody=vbody,
            vsb=vsb,
            p_memory=p_memory,
            shipped=shipped,
            standby_power=power,
        )

    def _lot_fingerprint(
        self, n_dies: int, sigma_inter: float, seed: int
    ) -> str:
        """Content fingerprint of everything one lot run depends on."""
        return fingerprint(
            {
                "technology": dataclasses.asdict(self.pipeline.tech),
                "geometry": dataclasses.asdict(self.pipeline.geometry),
                "organization": dataclasses.asdict(self.pipeline.organization),
                "asb_conditions": dataclasses.asdict(self.asb_conditions),
                "p_memory_limit": self.p_memory_limit,
                "n_dies": n_dies,
                "sigma_inter": sigma_inter,
                "seed": seed,
            }
        )

    def run(
        self,
        n_dies: int,
        sigma_inter: float,
        seed: int = 0,
        executor: "ParallelExecutor | None" = None,
        checkpoint: "CheckpointStore | None" = None,
    ) -> LotReport:
        """Simulate a lot of ``n_dies`` from a ``sigma_inter`` process.

        Every die gets its own child of ``seed`` (via
        :meth:`numpy.random.SeedSequence.spawn`), so the lot report is
        bit-identical whether the dies run inline (``executor=None``)
        or fanned out across any number of workers.

        With ``checkpoint`` set, completed dies are flushed to a
        checkpoint keyed by a fingerprint of the full run payload; a
        killed run re-invoked with the same parameters resumes from the
        last flush, and — since each die's RNG stream comes from its
        own spawned seed — produces a bit-identical report.
        """
        if n_dies <= 0:
            raise ValueError(f"n_dies must be positive, got {n_dies}")
        shift_seed, die_root = np.random.SeedSequence(seed).spawn(2)
        shifts = InterDieDistribution(sigma_inter).sample(
            np.random.default_rng(shift_seed), n_dies
        )
        tasks = [
            (self, ProcessCorner(float(shift)), die_seed)
            for shift, die_seed in zip(shifts, die_root.spawn(n_dies))
        ]
        _log.info("lot.start", dies=n_dies, sigma_inter=sigma_inter)

        stride = max(1, n_dies // 10)

        def compute(indices) -> list:
            if executor is not None:
                return executor.map(_die_task, [tasks[i] for i in indices])
            records = []
            for i in indices:
                records.append(_die_task(tasks[i]))
                if (i + 1) % stride == 0 or i + 1 == n_dies:
                    _log.info("lot.progress", done=i + 1, total=n_dies)
            return records

        with trace("lot.run"):
            records = resumable_map(
                checkpoint,
                "lot",
                self._lot_fingerprint(n_dies, sigma_inter, seed),
                n_dies,
                compute,
                _encode_die,
                _decode_die,
            )
        report = LotReport(dies=list(records))
        diagnostics.record("lot.yield", report.yield_result())
        _log.info(
            "lot.done",
            dies=n_dies,
            yield_pct=round(100 * report.yield_fraction, 1),
        )
        return report
