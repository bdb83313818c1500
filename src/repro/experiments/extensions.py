"""Extension experiments beyond the paper's figures.

These exercise the optional/companion-work features DESIGN.md lists:

* ``ext_delay`` — leakage vs delay vs combined corner binning, including
  their behaviour on hot (85 C) dies (the companion ITC'05 work [4]);
* ``ext_drv`` — the data-retention-voltage distribution and the safe
  standby supply it implies (the paper's reference [9] flow);
* ``ext_performance`` — access/cycle time vs body bias: the speed the
  FBB repair buys on slow dies (the performance side of Fig. 2's
  trade-off);
* ``ext_temperature`` — array leakage vs temperature and what it does
  to a leakage-only monitor's binning;
* ``ext_ecc`` — yield enhancement at equal overhead: SEC-DED ECC vs the
  paper's column redundancy (hard parametric faults burn ECC's single
  correction, so redundancy wins);
* ``ext_snm`` — the butterfly static noise margins under body bias: the
  margin-based view of the paper's Fig. 2b;
* ``ext_8t`` — the read-decoupled 8T cell vs the paper's 6T: the
  architectural alternative to post-silicon read repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.body_bias import BodyBiasGenerator, SelfRepairingSRAM
from repro.core.delay_monitor import CombinedMonitor, DelayMonitor, RingOscillator
from repro.core.monitor import LeakageMonitor
from repro.experiments.context import ExperimentContext, default_context
from repro.sram.array import ArrayOrganization
from repro.sram.cell import SixTCell, sample_cell_dvt
from repro.sram.drv import array_drv, cell_drv, safe_standby_voltage
from repro.sram.ecc import memory_failure_with_ecc
from repro.sram.eight_t import (
    EightTGeometry,
    eight_t_failure_probabilities,
    sample_eight_t,
)
from repro.sram.leakage import cell_leakage
from repro.sram.snm import hold_snm, read_snm
from repro.sram.timing import access_time, read_cycle_time
from repro.stats.yield_model import memory_failure_probability
from repro.technology.corners import ProcessCorner


# ----------------------------------------------------------------------
# ext_delay — sensor comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtDelayResult:
    """Binning decisions of the three monitors across corners and temps."""

    shifts: np.ndarray
    decisions: dict[str, list[str]]  # monitor name -> bin per corner
    hot_decisions: dict[str, str]    # monitor name -> bin of hot nominal die

    def rows(self) -> list[str]:
        lines = ["shift[mV]  leakage    delay      combined"]
        for i, s in enumerate(self.shifts):
            lines.append(
                f"{s * 1e3:+8.0f}  {self.decisions['leakage'][i]:9s}"
                f"  {self.decisions['delay'][i]:9s}"
                f"  {self.decisions['combined'][i]:9s}"
            )
        lines.append(
            "hot nominal die (85C): leakage -> "
            f"{self.hot_decisions['leakage']}, delay -> "
            f"{self.hot_decisions['delay']}, combined -> "
            f"{self.hot_decisions['combined']}"
        )
        return lines


def ext_delay(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray | None = None,
    n_cells: int = 64 * 1024 * 8,
) -> ExtDelayResult:
    """Compare leakage, delay, and combined corner binning.

    On true corners at 27 C all three agree; on a hot nominal die the
    leakage monitor misbins LOW_VT (leakage is exponential in
    temperature) while the ring is *slower*, so the combined monitor
    correctly refuses the RBB.
    """
    ctx = ctx if ctx is not None else default_context()
    shifts = shifts if shifts is not None else np.linspace(-0.08, 0.08, 9)
    leakage_monitor = LeakageMonitor.calibrate_references(
        ctx.tech, ctx.geometry, n_cells, n_samples=8_000
    )
    delay_monitor = DelayMonitor.calibrate(ctx.tech)
    combined = CombinedMonitor(leakage_monitor, delay_monitor)
    oscillator = delay_monitor.oscillator

    def mean_array_leakage(tech, corner: ProcessCorner) -> float:
        rng = np.random.default_rng(55)
        dvt = sample_cell_dvt(tech, ctx.geometry, rng, 6_000)
        cell = SixTCell(tech, ctx.geometry, corner, dvt)
        return n_cells * float(np.mean(cell_leakage(cell).total))

    decisions: dict[str, list[str]] = {
        "leakage": [], "delay": [], "combined": []
    }
    for s in shifts:
        corner = ProcessCorner(float(s))
        leakage = mean_array_leakage(ctx.tech, corner)
        period = oscillator.period(corner)
        decisions["leakage"].append(leakage_monitor.classify(leakage).value)
        decisions["delay"].append(
            delay_monitor.classify_period(period).value
        )
        decisions["combined"].append(
            combined.classify(leakage, period).value
        )

    hot_tech = ctx.tech.with_temperature(273.15 + 85.0)
    hot_leakage = mean_array_leakage(hot_tech, ProcessCorner(0.0))
    hot_period = RingOscillator(hot_tech).period(ProcessCorner(0.0))
    hot_decisions = {
        "leakage": leakage_monitor.classify(hot_leakage).value,
        "delay": delay_monitor.classify_period(hot_period).value,
        "combined": combined.classify(hot_leakage, hot_period).value,
    }
    return ExtDelayResult(
        shifts=np.asarray(shifts), decisions=decisions,
        hot_decisions=hot_decisions,
    )


# ----------------------------------------------------------------------
# ext_drv — data retention voltage distribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtDrvResult:
    """Cell and array DRV statistics, per body bias."""

    cell_drv: dict[float, np.ndarray]       # vbody -> per-cell DRVs
    array_quantiles: dict[float, float]     # vbody -> p99 array DRV
    safe_voltage: float
    n_cells: int

    def rows(self) -> list[str]:
        lines = ["vbody[V]  cell DRV p50/p99 [V]   array(64Kb) DRV p99 [V]"]
        for vbody in sorted(self.cell_drv):
            drv = self.cell_drv[vbody]
            lines.append(
                f"{vbody:+7.2f}  {np.median(drv):.3f} / "
                f"{np.quantile(drv, 0.99):.3f}            "
                f"{self.array_quantiles[vbody]:.3f}"
            )
        lines.append(
            f"safe standby supply (ZBB, 99% of dies + 50 mV guard): "
            f"{self.safe_voltage:.3f} V"
        )
        return lines


def ext_drv(
    ctx: ExperimentContext | None = None,
    n_samples: int = 8_000,
    n_cells: int = 64 * 1024,
) -> ExtDrvResult:
    """DRV distribution of the cell population and its array extremes."""
    ctx = ctx if ctx is not None else default_context()
    rng = np.random.default_rng((ctx.seed, 71))
    dvt = sample_cell_dvt(ctx.tech, ctx.geometry, rng, n_samples)
    population = SixTCell(ctx.tech, ctx.geometry, ProcessCorner(0.0), dvt)
    cell_drvs: dict[float, np.ndarray] = {}
    quantiles: dict[float, float] = {}
    for vbody in (0.0, -0.4):
        drv = cell_drv(population, ctx.criteria, vbody_n=vbody, n_levels=25)
        cell_drvs[vbody] = drv
        maxima = array_drv(drv, n_cells, np.random.default_rng(72),
                           n_arrays=400)
        quantiles[vbody] = float(np.quantile(maxima, 0.99))
    safe = safe_standby_voltage(
        cell_drvs[0.0], n_cells, np.random.default_rng(73)
    )
    return ExtDrvResult(
        cell_drv=cell_drvs, array_quantiles=quantiles,
        safe_voltage=safe, n_cells=n_cells,
    )


# ----------------------------------------------------------------------
# ext_performance — the speed FBB buys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtPerformanceResult:
    """Access/cycle time across corners, ZBB vs the repair policy."""

    shifts: np.ndarray
    t_access_zbb: np.ndarray
    t_access_repaired: np.ndarray
    t_cycle_zbb: np.ndarray

    def rows(self) -> list[str]:
        lines = ["shift[mV]  T_access ZBB[ps]  T_access repaired[ps]  "
                 "T_cycle ZBB[ps]"]
        for i, s in enumerate(self.shifts):
            lines.append(
                f"{s * 1e3:+8.0f}  {self.t_access_zbb[i] * 1e12:15.1f}"
                f"  {self.t_access_repaired[i] * 1e12:20.1f}"
                f"  {self.t_cycle_zbb[i] * 1e12:14.1f}"
            )
        return lines


def ext_performance(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray | None = None,
    fbb: float = 0.25,
    rbb: float = -0.4,
    boundary: tuple[float, float] = (0.035, 0.055),
) -> ExtPerformanceResult:
    """Access-time recovery from the body-bias repair policy.

    ``boundary`` is the monitor's (low, high) corner half-widths —
    asymmetric by default, matching the repair pipeline.
    """
    ctx = ctx if ctx is not None else default_context()
    shifts = shifts if shifts is not None else np.linspace(-0.1, 0.1, 9)
    organization = ArrayOrganization.from_capacity(
        64 * 1024, rows=256, redundancy_fraction=0.05
    )
    low_boundary, high_boundary = boundary
    zbb = np.empty(len(shifts))
    repaired = np.empty(len(shifts))
    cycle = np.empty(len(shifts))
    for i, s in enumerate(shifts):
        cell = SixTCell(ctx.tech, ctx.geometry, ProcessCorner(float(s)))
        vbody = (
            rbb if s < -low_boundary
            else (fbb if s > high_boundary else 0.0)
        )
        zbb[i] = float(np.atleast_1d(
            access_time(cell, organization, ctx.tech.vdd, 0.0))[0])
        repaired[i] = float(np.atleast_1d(
            access_time(cell, organization, ctx.tech.vdd, vbody))[0])
        cycle[i] = float(np.atleast_1d(
            read_cycle_time(cell, organization, ctx.tech.vdd, 0.0))[0])
    return ExtPerformanceResult(
        shifts=np.asarray(shifts), t_access_zbb=zbb,
        t_access_repaired=repaired, t_cycle_zbb=cycle,
    )


# ----------------------------------------------------------------------
# ext_temperature — leakage vs temperature and monitor robustness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtTemperatureResult:
    """Leakage scaling and leakage-monitor binning vs temperature."""

    temperatures_c: np.ndarray
    mean_cell_leakage: np.ndarray
    leakage_bin: list[str]
    delay_bin: list[str]

    def rows(self) -> list[str]:
        lines = ["T[C]   cell leakage[nA]  leakage-monitor bin  delay bin"]
        for i, t in enumerate(self.temperatures_c):
            lines.append(
                f"{t:5.0f}  {self.mean_cell_leakage[i] * 1e9:15.2f}"
                f"  {self.leakage_bin[i]:18s}  {self.delay_bin[i]}"
            )
        return lines


def ext_temperature(
    ctx: ExperimentContext | None = None,
    temperatures_c: np.ndarray | None = None,
    n_cells: int = 64 * 1024 * 8,
) -> ExtTemperatureResult:
    """How a nominal die reads across temperature.

    The leakage monitor (calibrated at 27 C) starts misbinning the die
    as LOW_VT somewhere between 45 and 85 C; the delay monitor stays
    NOMINAL-or-slower — quantifying why the combined scheme matters.
    """
    ctx = ctx if ctx is not None else default_context()
    temperatures_c = (
        temperatures_c if temperatures_c is not None
        else np.array([0.0, 27.0, 45.0, 65.0, 85.0])
    )
    monitor = LeakageMonitor.calibrate_references(
        ctx.tech, ctx.geometry, n_cells, n_samples=8_000
    )
    delay_monitor = DelayMonitor.calibrate(ctx.tech)
    leakage_means = np.empty(len(temperatures_c))
    leakage_bins: list[str] = []
    delay_bins: list[str] = []
    for i, t_c in enumerate(temperatures_c):
        tech_t = ctx.tech.with_temperature(273.15 + float(t_c))
        rng = np.random.default_rng(81)
        dvt = sample_cell_dvt(tech_t, ctx.geometry, rng, 6_000)
        cell = SixTCell(tech_t, ctx.geometry, ProcessCorner(0.0), dvt)
        mean = float(np.mean(cell_leakage(cell).total))
        leakage_means[i] = mean
        leakage_bins.append(monitor.classify(n_cells * mean).value)
        period = RingOscillator(tech_t).period(ProcessCorner(0.0))
        delay_bins.append(delay_monitor.classify_period(period).value)
    return ExtTemperatureResult(
        temperatures_c=np.asarray(temperatures_c),
        mean_cell_leakage=leakage_means,
        leakage_bin=leakage_bins,
        delay_bin=delay_bins,
    )


# ----------------------------------------------------------------------
# ext_ecc — ECC vs redundancy at equal overhead
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtEccResult:
    """Memory failure probability per scheme across inter-die corners."""

    shifts: np.ndarray
    p_none: np.ndarray
    p_redundancy: np.ndarray
    p_ecc: np.ndarray
    p_repair_plus_redundancy: np.ndarray

    def rows(self) -> list[str]:
        lines = ["shift[mV]  P_mem none  P_mem redundancy  P_mem ECC  "
                 "P_mem repair+red"]
        for i, s in enumerate(self.shifts):
            lines.append(
                f"{s * 1e3:+8.0f}  {self.p_none[i]:9.2e}"
                f"  {self.p_redundancy[i]:15.2e}  {self.p_ecc[i]:9.2e}"
                f"  {self.p_repair_plus_redundancy[i]:15.2e}"
            )
        return lines


def ext_ecc(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray | None = None,
    memory_kbytes: int = 64,
) -> ExtEccResult:
    """Yield enhancement at equal ~12.5% overhead: ECC vs redundancy.

    Hard parametric faults consume SEC-DED's single correction
    permanently, so at equal area the paper's column redundancy (and a
    fortiori redundancy + post-silicon repair) dominates ECC — the
    quantitative argument for why ECC is reserved for soft errors.
    """
    ctx = ctx if ctx is not None else default_context()
    shifts = shifts if shifts is not None else np.linspace(-0.06, 0.06, 9)
    n_cells = memory_kbytes * 1024 * 8
    # Equal-overhead organisations: 12.5% spare columns vs (72, 64) ECC.
    organization = ArrayOrganization(
        rows=256, columns=n_cells // 256,
        redundant_columns=round(0.125 * n_cells / 256),
    )
    pipeline = SelfRepairingSRAM(
        ctx.analyzer(), organization, generator=BodyBiasGenerator(),
        table_provider=ctx.table, seed=ctx.seed + 5,
    )
    table = ctx.table(0.0)
    p_none = np.empty(len(shifts))
    p_red = np.empty(len(shifts))
    p_ecc = np.empty(len(shifts))
    p_rep = np.empty(len(shifts))
    for i, s in enumerate(shifts):
        corner = ProcessCorner(float(s))
        p_cell = table.probability(corner, "any")
        p_none[i] = float(-np.expm1(n_cells * np.log1p(-min(p_cell, 1 - 1e-16))))
        p_red[i] = memory_failure_probability(p_cell, organization)
        p_ecc[i] = memory_failure_with_ecc(p_cell, n_cells // 64, 72)
        vbody = pipeline.decide_bias(corner)[0]
        p_rep[i] = pipeline.memory_failure_probability(corner, vbody)
    return ExtEccResult(
        shifts=np.asarray(shifts), p_none=p_none, p_redundancy=p_red,
        p_ecc=p_ecc, p_repair_plus_redundancy=p_rep,
    )


# ----------------------------------------------------------------------
# ext_snm — static noise margins under body bias
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExtSnmResult:
    """Read/hold SNM statistics vs NMOS body bias."""

    vbody: np.ndarray
    read_mean: np.ndarray
    read_p01: np.ndarray
    hold_mean: np.ndarray

    def rows(self) -> list[str]:
        lines = ["vbody[V]  read SNM mean/p1 [mV]   hold SNM mean [mV]"]
        for i, v in enumerate(self.vbody):
            lines.append(
                f"{v:+7.2f}  {self.read_mean[i] * 1e3:8.1f} /"
                f" {self.read_p01[i] * 1e3:6.1f}"
                f"   {self.hold_mean[i] * 1e3:12.1f}"
            )
        return lines


def ext_snm(
    ctx: ExperimentContext | None = None,
    vbody: np.ndarray | None = None,
    n_samples: int = 1_500,
) -> ExtSnmResult:
    """Butterfly SNMs vs body bias: the margin view of Fig. 2b.

    RBB widens the read butterfly (the read-failure repair) and FBB
    narrows it; the hold SNM barely moves at full supply.
    """
    ctx = ctx if ctx is not None else default_context()
    vbody = vbody if vbody is not None else np.array([-0.4, -0.2, 0.0, 0.25])
    rng = np.random.default_rng((ctx.seed, 91))
    dvt = sample_cell_dvt(ctx.tech, ctx.geometry, rng, n_samples)
    population = SixTCell(ctx.tech, ctx.geometry, ProcessCorner(0.0), dvt)
    read_mean = np.empty(len(vbody))
    read_p01 = np.empty(len(vbody))
    hold_mean = np.empty(len(vbody))
    for i, vb in enumerate(vbody):
        read = read_snm(population, ctx.tech.vdd, vbody_n=float(vb))
        hold = hold_snm(population, ctx.tech.vdd, vbody_n=float(vb))
        read_mean[i] = read.mean()
        read_p01[i] = np.quantile(read, 0.01)
        hold_mean[i] = hold.mean()
    return ExtSnmResult(
        vbody=np.asarray(vbody), read_mean=read_mean,
        read_p01=read_p01, hold_mean=hold_mean,
    )


# ----------------------------------------------------------------------
# ext_8t — the architectural alternative to read repair
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ext8TResult:
    """6T vs 8T failure probabilities across inter-die corners."""

    shifts: np.ndarray
    p6_read: np.ndarray
    p6_any: np.ndarray
    p8_any: np.ndarray
    area_overhead: float

    def rows(self) -> list[str]:
        lines = [f"8T area overhead ~ {100 * self.area_overhead:.0f}%",
                 "shift[mV]  6T read     6T overall  8T overall"]
        for i, s in enumerate(self.shifts):
            lines.append(
                f"{s * 1e3:+8.0f}  {self.p6_read[i]:9.2e}"
                f"  {self.p6_any[i]:9.2e}  {self.p8_any[i]:9.2e}"
            )
        return lines


def ext_8t(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray | None = None,
    n_samples: int = 20_000,
) -> Ext8TResult:
    """The 8T cell vs the 6T across corners.

    The 8T's decoupled read port removes the read-failure wall that
    dominates the 6T's low-Vt side (the left half of the paper's
    Fig. 2a); write/access/hold remain, so the high-Vt side is
    unchanged.  The comparison quantifies what the paper's post-silicon
    RBB repair buys *without* paying the 8T's ~33% area.
    """
    ctx = ctx if ctx is not None else default_context()
    shifts = shifts if shifts is not None else np.linspace(-0.1, 0.1, 9)
    analyzer = ctx.analyzer()
    p6_read = np.empty(len(shifts))
    p6_any = np.empty(len(shifts))
    p8_any = np.empty(len(shifts))
    for i, s in enumerate(shifts):
        corner = ProcessCorner(float(s))
        p6 = analyzer.failure_probabilities(corner)
        p6_read[i] = p6["read"].estimate
        p6_any[i] = p6["any"].estimate
        rng = np.random.default_rng((ctx.seed, 95, i))
        cell, weights = sample_eight_t(
            ctx.tech, rng, n_samples, geometry=ctx.geometry,
            corner=corner, scale=2.0,
        )
        p8 = eight_t_failure_probabilities(
            cell, weights, ctx.criteria, ctx.conditions
        )
        p8_any[i] = p8["any"].estimate
    return Ext8TResult(
        shifts=np.asarray(shifts), p6_read=p6_read, p6_any=p6_any,
        p8_any=p8_any, area_overhead=EightTGeometry().area_overhead,
    )
