"""Self-repairing SRAM experiments (paper Figs. 2-5)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.body_bias import BodyBiasGenerator, SelfRepairingSRAM
from repro.experiments.context import ExperimentContext, default_context
from repro.stats.yield_model import memory_failure_probability
from repro.sram.array import ArrayOrganization
from repro.sram.cell import SixTCell, sample_cell_dvt
from repro.sram.leakage import cell_leakage, sample_array_leakage
from repro.technology.corners import ProcessCorner
from repro.technology.variation import InterDieDistribution

#: Default inter-die sweep for the corner figures [V].
DEFAULT_SHIFTS = np.linspace(-0.12, 0.12, 13)
#: Default sigma sweep for the yield figures [V].
DEFAULT_SIGMAS = np.linspace(0.01, 0.08, 8)

MECHANISMS = ("read", "write", "access", "hold")


def _organization(kbytes: int) -> ArrayOrganization:
    return ArrayOrganization.from_capacity(kbytes * 1024, rows=256,
                                           redundancy_fraction=0.05)


def _pipeline(
    ctx: ExperimentContext, organization: ArrayOrganization
) -> SelfRepairingSRAM:
    return SelfRepairingSRAM(
        ctx.analyzer(),
        organization,
        generator=BodyBiasGenerator(),
        table_provider=ctx.table,
        seed=ctx.seed + 3,
    )


# ----------------------------------------------------------------------
# Fig. 2a — failure probabilities vs inter-die Vt shift
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig2aResult:
    """Cell/memory failure probabilities across inter-die corners."""

    shifts: np.ndarray
    probabilities: dict[str, np.ndarray]  # mechanism -> P(shift)
    p_memory: np.ndarray  # 256KB memory failure probability

    def rows(self) -> list[str]:
        header = "shift[mV] " + " ".join(f"{m:>9}" for m in MECHANISMS) + \
            "   overall  P_mem(256KB)"
        lines = [header]
        for i, s in enumerate(self.shifts):
            cells = " ".join(
                f"{self.probabilities[m][i]:9.2e}" for m in MECHANISMS
            )
            lines.append(
                f"{s * 1e3:+8.0f}  {cells}  {self.probabilities['any'][i]:8.2e}"
                f"  {self.p_memory[i]:8.2e}"
            )
        return lines


def fig2a(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray = DEFAULT_SHIFTS,
    memory_kbytes: int = 256,
) -> Fig2aResult:
    """Reproduce Fig. 2a: the failure bathtub across inter-die corners.

    Low-Vt dies fail read/hold, high-Vt dies fail access/write; the
    overall curve is minimal near the nominal corner and the memory
    failure probability (after redundancy) follows it.
    """
    ctx = ctx if ctx is not None else default_context()
    table = ctx.table(0.0)
    organization = _organization(memory_kbytes)
    probabilities = {
        name: table.series(shifts, name) for name in MECHANISMS + ("any",)
    }
    p_memory = np.array(
        [
            memory_failure_probability(p, organization)
            for p in probabilities["any"]
        ]
    )
    return Fig2aResult(shifts=np.asarray(shifts), probabilities=probabilities,
                       p_memory=p_memory)


# ----------------------------------------------------------------------
# Fig. 2b — failure probabilities vs body bias (nominal die)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig2bResult:
    """Failure probabilities vs NMOS body bias for one corner."""

    vbody: np.ndarray
    corner: ProcessCorner
    probabilities: dict[str, np.ndarray]

    def rows(self) -> list[str]:
        header = "vbody[V]  " + " ".join(f"{m:>9}" for m in MECHANISMS) + \
            "   overall"
        lines = [header]
        for i, v in enumerate(self.vbody):
            cells = " ".join(
                f"{self.probabilities[m][i]:9.2e}" for m in MECHANISMS
            )
            lines.append(
                f"{v:+7.2f}   {cells}  {self.probabilities['any'][i]:8.2e}"
            )
        return lines


def fig2b(
    ctx: ExperimentContext | None = None,
    vbody: np.ndarray | None = None,
    corner: ProcessCorner = ProcessCorner(0.0),
) -> Fig2bResult:
    """Reproduce Fig. 2b: RBB cuts read/hold failures but raises
    access/write failures, FBB the reverse; the overall minimum sits
    near ZBB for a nominal die (equal-probability sizing)."""
    ctx = ctx if ctx is not None else default_context()
    vbody = vbody if vbody is not None else np.linspace(-0.5, 0.5, 11)
    analyzer = ctx.analyzer()
    probabilities = {name: np.empty(len(vbody)) for name in MECHANISMS + ("any",)}
    for i, vb in enumerate(vbody):
        probs = analyzer.failure_probabilities(
            corner, ctx.conditions.with_body_bias(float(vb))
        )
        for name in MECHANISMS + ("any",):
            probabilities[name][i] = probs[name].estimate
    return Fig2bResult(vbody=np.asarray(vbody), corner=corner,
                       probabilities=probabilities)


# ----------------------------------------------------------------------
# Fig. 2c — parametric yield vs sigma(Vt_inter)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig2cResult:
    """Parametric yield, ZBB vs self-repairing, per memory size."""

    sigmas: np.ndarray
    yields: dict[tuple[int, str], np.ndarray]  # (kbytes, policy) -> yield

    def improvement(self, kbytes: int) -> np.ndarray:
        """Self-repair yield gain in percentage points."""
        return 100.0 * (
            self.yields[(kbytes, "self_repair")] - self.yields[(kbytes, "zbb")]
        )

    def rows(self) -> list[str]:
        sizes = sorted({k for k, _ in self.yields})
        header = "sigma[mV] " + " ".join(
            f"{k}KB-zbb {k}KB-rep" for k in sizes
        )
        lines = [header]
        for i, s in enumerate(self.sigmas):
            cells = []
            for k in sizes:
                cells.append(f"{100 * self.yields[(k, 'zbb')][i]:8.1f}")
                cells.append(f"{100 * self.yields[(k, 'self_repair')][i]:8.1f}")
            lines.append(f"{s * 1e3:8.0f}  " + " ".join(cells))
        return lines


def fig2c(
    ctx: ExperimentContext | None = None,
    sigmas: np.ndarray = DEFAULT_SIGMAS,
    sizes_kbytes: tuple[int, ...] = (64, 256),
) -> Fig2cResult:
    """Reproduce Fig. 2c: self-repair recovers 8-25% of parametric yield
    at realistic inter-die sigma, for both 64KB and 256KB arrays."""
    ctx = ctx if ctx is not None else default_context()
    yields: dict[tuple[int, str], np.ndarray] = {}
    for kbytes in sizes_kbytes:
        pipeline = _pipeline(ctx, _organization(kbytes))
        zbb = np.empty(len(sigmas))
        repaired = np.empty(len(sigmas))
        for i, sigma in enumerate(sigmas):
            dist = InterDieDistribution(float(sigma))
            zbb[i] = pipeline.parametric_yield(dist, repaired=False)
            repaired[i] = pipeline.parametric_yield(dist, repaired=True)
        yields[(kbytes, "zbb")] = zbb
        yields[(kbytes, "self_repair")] = repaired
    return Fig2cResult(sigmas=np.asarray(sigmas), yields=yields)


# ----------------------------------------------------------------------
# Fig. 3 — cell vs array leakage distributions (CLT separation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig3Result:
    """Leakage samples per corner: single cells and 1KB arrays."""

    corners: tuple[float, ...]
    cell_samples: dict[float, np.ndarray]  # corner -> per-cell leakage [A]
    array_samples: dict[float, np.ndarray]  # corner -> per-array leakage [A]
    array_cells: int

    def overlap_fraction(self, kind: str = "cell") -> float:
        """Fraction of the middle corner's samples falling inside the
        [5%, 95%] spans of *both* outer corners — the separability
        measure (cells overlap heavily, arrays essentially not at all).
        """
        samples = self.cell_samples if kind == "cell" else self.array_samples
        low, mid, high = (samples[c] for c in sorted(samples))
        lo_span = (np.quantile(low, 0.05), np.quantile(low, 0.95))
        hi_span = (np.quantile(high, 0.05), np.quantile(high, 0.95))
        inside_low = (mid >= lo_span[0]) & (mid <= lo_span[1])
        inside_high = (mid >= hi_span[0]) & (mid <= hi_span[1])
        return float(np.mean(inside_low | inside_high))

    def rows(self) -> list[str]:
        lines = ["corner[mV]  cell mean[nA]  cell std[nA]  "
                 f"array({self.array_cells} cells) mean[uA]  array std[uA]"]
        for c in self.corners:
            cell = self.cell_samples[c]
            arr = self.array_samples[c]
            lines.append(
                f"{c * 1e3:+9.0f}  {cell.mean() * 1e9:12.2f}  "
                f"{cell.std() * 1e9:11.2f}  {arr.mean() * 1e6:20.3f}  "
                f"{arr.std() * 1e6:12.4f}"
            )
        lines.append(
            f"cell overlap fraction:  {self.overlap_fraction('cell'):.3f}"
        )
        lines.append(
            f"array overlap fraction: {self.overlap_fraction('array'):.3f}"
        )
        return lines


def fig3(
    ctx: ExperimentContext | None = None,
    corners: tuple[float, ...] = (-0.035, 0.0, 0.035),
    n_cell_samples: int = 30_000,
    n_arrays: int = 300,
    array_kbytes: int = 1,
) -> Fig3Result:
    """Reproduce Fig. 3: cell leakage distributions from different
    inter-die corners overlap, 1KB-array distributions separate —
    the central-limit argument behind leakage-based corner binning.

    The default corners sit at the self-repair monitor's bin boundary
    (+/-35 mV) rather than the paper's +/-100 mV: our per-cell leakage
    spread is narrower than the paper's (the cell total sums three
    comparable leakage paths, diluting the lognormal sigma), so the
    interesting regime — cell-level measurement cannot resolve the
    corner, array-level measurement can — is exactly the boundary the
    comparators must discriminate."""
    ctx = ctx if ctx is not None else default_context()
    cells_per_array = array_kbytes * 1024 * 8
    cell_samples: dict[float, np.ndarray] = {}
    array_samples: dict[float, np.ndarray] = {}
    for i, c in enumerate(corners):
        rng = np.random.default_rng((ctx.seed, 40 + i))
        dvt = sample_cell_dvt(ctx.tech, ctx.geometry, rng, n_cell_samples)
        population = SixTCell(ctx.tech, ctx.geometry, ProcessCorner(c), dvt)
        cell_samples[c] = cell_leakage(population).total
        template = SixTCell(ctx.tech, ctx.geometry, ProcessCorner(c), None)
        array_samples[c] = sample_array_leakage(
            template, cells_per_array, n_arrays,
            np.random.default_rng((ctx.seed, 50 + i)),
        )
    return Fig3Result(
        corners=tuple(corners),
        cell_samples=cell_samples,
        array_samples=array_samples,
        array_cells=cells_per_array,
    )


# ----------------------------------------------------------------------
# Fig. 4b — number of failures, no-body-bias vs self-repairing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4bResult:
    """Expected failing cells in one array, per corner, both policies."""

    shifts: np.ndarray
    failures_zbb: np.ndarray
    failures_repaired: np.ndarray
    n_cells: int

    def rows(self) -> list[str]:
        lines = ["shift[mV]  #fail (no bias)  #fail (self-repair)"]
        for i, s in enumerate(self.shifts):
            lines.append(
                f"{s * 1e3:+8.0f}  {self.failures_zbb[i]:15.1f}  "
                f"{self.failures_repaired[i]:19.1f}"
            )
        return lines


def fig4b(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray = DEFAULT_SHIFTS,
    memory_kbytes: int = 256,
) -> Fig4bResult:
    """Reproduce Fig. 4b: expected failing cells in a 256KB array for
    dies shifted to each corner, without and with self-repair."""
    ctx = ctx if ctx is not None else default_context()
    organization = _organization(memory_kbytes)
    pipeline = _pipeline(ctx, organization)
    n_cells = organization.n_cells
    zbb = np.empty(len(shifts))
    repaired = np.empty(len(shifts))
    for i, s in enumerate(shifts):
        corner = ProcessCorner(float(s))
        zbb[i] = n_cells * pipeline.cell_failure_probability(corner, 0.0)
        vbody = pipeline.decide_bias(corner)[0]
        repaired[i] = n_cells * pipeline.cell_failure_probability(corner, vbody)
    return Fig4bResult(
        shifts=np.asarray(shifts), failures_zbb=zbb,
        failures_repaired=repaired, n_cells=n_cells,
    )


# ----------------------------------------------------------------------
# Fig. 5a — leakage components vs body bias
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5aResult:
    """Normalised nominal-cell leakage components vs body bias."""

    vbody: np.ndarray
    subthreshold: np.ndarray
    gate: np.ndarray
    junction: np.ndarray
    total: np.ndarray

    def rows(self) -> list[str]:
        lines = ["vbody[V]  sub  gate  junction  total  (normalised to ZBB total)"]
        for i, v in enumerate(self.vbody):
            lines.append(
                f"{v:+6.2f}  {self.subthreshold[i]:6.3f} {self.gate[i]:6.3f} "
                f"{self.junction[i]:7.3f} {self.total[i]:7.3f}"
            )
        return lines


def fig5a(
    ctx: ExperimentContext | None = None,
    vbody: np.ndarray | None = None,
) -> Fig5aResult:
    """Reproduce Fig. 5a: subthreshold leakage rises with FBB, junction
    BTBT rises with RBB, gate leakage stays flat; the total has an
    interior minimum and blows up at strong FBB (body diode)."""
    ctx = ctx if ctx is not None else default_context()
    vbody = vbody if vbody is not None else np.linspace(-0.6, 0.55, 24)
    cell = SixTCell(ctx.tech, ctx.geometry, ProcessCorner(0.0), None)
    sub = np.empty(len(vbody))
    gate = np.empty(len(vbody))
    junction = np.empty(len(vbody))
    for i, vb in enumerate(vbody):
        breakdown = cell_leakage(cell, vbody_n=float(vb))
        sub[i] = float(breakdown.subthreshold[0])
        gate[i] = float(breakdown.gate[0])
        junction[i] = float(breakdown.junction[0])
    reference = float(cell_leakage(cell).total[0])
    return Fig5aResult(
        vbody=np.asarray(vbody),
        subthreshold=sub / reference,
        gate=gate / reference,
        junction=junction / reference,
        total=(sub + gate + junction) / reference,
    )


# ----------------------------------------------------------------------
# Fig. 5b — memory leakage spread, ZBB vs self-repairing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5bResult:
    """Per-die memory leakage samples under both policies."""

    leakage_zbb: np.ndarray
    leakage_repaired: np.ndarray
    sigma_inter: float

    @property
    def spread_reduction(self) -> float:
        """1 - sigma(repaired)/sigma(ZBB): the spread compression."""
        return 1.0 - float(
            np.std(self.leakage_repaired) / np.std(self.leakage_zbb)
        )

    def rows(self) -> list[str]:
        z, r = self.leakage_zbb, self.leakage_repaired
        return [
            f"dies: {z.size}, sigma(Vt_inter) = {self.sigma_inter * 1e3:.0f} mV",
            f"ZBB:         mean {z.mean() * 1e3:.3f} mA  std {z.std() * 1e3:.3f} mA"
            f"  p95/p5 {np.quantile(z, 0.95) / np.quantile(z, 0.05):.2f}",
            f"self-repair: mean {r.mean() * 1e3:.3f} mA  std {r.std() * 1e3:.3f} mA"
            f"  p95/p5 {np.quantile(r, 0.95) / np.quantile(r, 0.05):.2f}",
            f"spread reduction: {100 * self.spread_reduction:.1f}%",
        ]


def fig5b(
    ctx: ExperimentContext | None = None,
    sigma_inter: float = 0.05,
    n_dies: int = 400,
    memory_kbytes: int = 64,
) -> Fig5bResult:
    """Reproduce Fig. 5b: the self-repairing bias pulls the leaky (RBB)
    and slow (FBB) tails toward nominal, compressing the die-to-die
    leakage spread."""
    ctx = ctx if ctx is not None else default_context()
    pipeline = _pipeline(ctx, _organization(memory_kbytes))
    rng = np.random.default_rng((ctx.seed, 60))
    shifts = InterDieDistribution(sigma_inter).sample(rng, n_dies)
    zbb = np.empty(n_dies)
    repaired = np.empty(n_dies)
    for i, s in enumerate(shifts):
        # Quantise the corner so the CLT leakage cache is reused.
        corner = ProcessCorner(round(float(s), 2))
        zbb_dist = pipeline.array_leakage(corner, 0.0)
        zbb[i] = float(zbb_dist.sample(rng, 1)[0])
        vbody = pipeline.generator.bias_for(
            pipeline.monitor.classify(zbb[i])
        )
        repaired[i] = float(
            pipeline.array_leakage(corner, vbody).sample(rng, 1)[0]
        )
    return Fig5bResult(
        leakage_zbb=zbb, leakage_repaired=repaired, sigma_inter=sigma_inter
    )


# ----------------------------------------------------------------------
# Fig. 5c — leakage yield vs sigma, ZBB vs self-repairing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5cResult:
    """Leakage yield vs sigma(Vt_inter), both policies."""

    sigmas: np.ndarray
    yield_zbb: np.ndarray
    yield_repaired: np.ndarray
    l_max: float

    def rows(self) -> list[str]:
        lines = [f"L_MAX = {self.l_max * 1e3:.3f} mA",
                 "sigma[mV]  L_yield ZBB[%]  L_yield self-repair[%]"]
        for i, s in enumerate(self.sigmas):
            lines.append(
                f"{s * 1e3:8.0f}  {100 * self.yield_zbb[i]:13.1f}  "
                f"{100 * self.yield_repaired[i]:20.1f}"
            )
        return lines


def fig5c(
    ctx: ExperimentContext | None = None,
    sigmas: np.ndarray = DEFAULT_SIGMAS,
    memory_kbytes: int = 64,
    l_max_over_nominal: float = 2.0,
) -> Fig5cResult:
    """Reproduce Fig. 5c: the leakage-bound yield degrades quickly with
    inter-die sigma at ZBB and is largely recovered by self-repair."""
    ctx = ctx if ctx is not None else default_context()
    pipeline = _pipeline(ctx, _organization(memory_kbytes))
    l_max = l_max_over_nominal * pipeline.array_leakage(
        ProcessCorner(0.0), 0.0
    ).mean
    yield_zbb = np.empty(len(sigmas))
    yield_repaired = np.empty(len(sigmas))
    for i, sigma in enumerate(sigmas):
        dist = InterDieDistribution(float(sigma))
        yield_zbb[i] = pipeline.leakage_yield(dist, l_max, repaired=False)
        yield_repaired[i] = pipeline.leakage_yield(dist, l_max, repaired=True)
    return Fig5cResult(
        sigmas=np.asarray(sigmas),
        yield_zbb=yield_zbb,
        yield_repaired=yield_repaired,
        l_max=l_max,
    )
