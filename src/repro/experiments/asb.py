"""Self-adaptive source-bias experiments (paper Figs. 6-10).

These experiments share a :class:`HoldProbabilityTable` — an
interpolated surface of the hold-failure probability over (inter-die
corner, VSB) at the source-biasing standby conditions.  The table backs
the statistical policies:

* **VSB(opt)** — the single design-time bias chosen at the nominal
  corner (the paper's [10] baseline);
* **VSB(adaptive)** — the per-die bias the BIST would converge to,
  modelled statistically as the largest DAC code whose expected faulty
  columns fit in the redundancy (the per-die BIST hardware itself is
  exercised in :func:`fig8`/:func:`fig9` and the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from repro.core.source_bias import (
    SelfAdaptiveSourceBias,
    SourceBiasDAC,
)
from repro.core.tables import Surface, build_surface
from repro.experiments.context import ExperimentContext, default_context
from repro.observability.diagnostics import BatchDiagnostics
from repro.observability.log import get_logger
from repro.observability.metrics import incr
from repro.observability.tracing import trace
from repro.parallel.cache import fingerprint
from repro.power.standby import die_standby_power
from repro.sram.array import ArrayOrganization, FunctionalMemoryArray
from repro.stats.distributions import NormalDistribution
from repro.stats.montecarlo import MonteCarloResult
from repro.stats.yield_model import leakage_yield, parametric_yield
from repro.technology.corners import ProcessCorner
from repro.technology.variation import InterDieDistribution

#: Default inter-die sweep [V].
DEFAULT_SHIFTS = np.linspace(-0.1, 0.1, 9)

_log = get_logger("experiments.asb")

#: The (corner, VSB) hold surface: one hold estimate per node.
HOLD_SURFACE = Surface(
    kind="hold-table",
    prefix="hold_table",
    floor=1e-14,
    counts=("nodes", "points"),
    log=_log,
    estimates=lambda result: {"hold": result},
    decode=lambda raw: MonteCarloResult(**raw),
)


def default_asb_organization() -> ArrayOrganization:
    """The paper's ASB testbench: 2KB array, 5% column redundancy."""
    return ArrayOrganization.from_capacity(
        2 * 1024, rows=64, redundancy_fraction=0.05
    )


class HoldProbabilityTable:
    """Interpolated hold-failure probability over (corner, VSB).

    Built once from importance-sampled estimates on a rectilinear grid;
    interpolation is linear in log10(p).  The surface is the engine
    behind Figs. 6, 8 (statistical policies), 9b and 10.
    """

    def __init__(
        self,
        ctx: ExperimentContext,
        corner_grid: np.ndarray | None = None,
        vsb_grid: np.ndarray | None = None,
    ) -> None:
        self.ctx = ctx
        self.corner_grid = (
            corner_grid if corner_grid is not None
            else np.linspace(-0.12, 0.12, 9)
        )
        self.vsb_grid = (
            vsb_grid if vsb_grid is not None
            else np.array([0.0, 0.2, 0.3, 0.4, 0.45, 0.5, 0.525,
                           0.55, 0.575, 0.6, 0.63])
        )
        #: Estimator health of the surface build (worst-node CI
        #: half-width, minimum ESS, unconverged node count).
        self.diagnostics: BatchDiagnostics
        log_p = self._grid_log_probabilities(ctx)
        self._interp = RegularGridInterpolator(
            (self.corner_grid, self.vsb_grid), log_p,
            bounds_error=False, fill_value=None,
        )

    @trace("hold_table.build")
    def _grid_log_probabilities(self, ctx: ExperimentContext) -> np.ndarray:
        """The log10 hold-probability matrix: one hold estimate per
        (corner, vsb) node, built by :func:`repro.core.tables.build_surface`."""
        analyzer = ctx.analyzer()
        shape = (self.corner_grid.size, self.vsb_grid.size)

        def finish(log_p: dict) -> list:
            # Raising the source bias can only degrade the retention
            # margin, so the true surface is monotone increasing in VSB;
            # estimates below the Monte-Carlo resolution jitter around
            # the floor, and a running max restores the invariant the
            # bisection policies (vsb_for_target, adaptive_vsb) rely on.
            surface = np.maximum.accumulate(
                np.array(log_p["hold"]).reshape(shape), axis=1
            )
            return [[float(v) for v in row] for row in surface]

        log_p, self.diagnostics = build_surface(
            HOLD_SURFACE,
            analyzer.surface_key(
                corner_grid=[float(x) for x in self.corner_grid],
                vsb_grid=[float(x) for x in self.vsb_grid],
            ),
            [
                (ProcessCorner(float(dvt)), ctx.asb_conditions(float(vsb)))
                for dvt in self.corner_grid
                for vsb in self.vsb_grid
            ],
            analyzer.hold_failure_probability_batch,
            finish,
            scope="hold_table",
            start=dict(
                corners=shape[0], vsb_levels=shape[1], points=shape[0] * shape[1]
            ),
            cached=dict(corners=shape[0], vsb_levels=shape[1]),
            executor=ctx.executor,
            cache=ctx.result_cache,
            checkpoint=ctx.checkpoint_store,
        )
        return np.array(log_p, dtype=float)

    def probability(self, corner: float, vsb: float) -> float:
        """Interpolated hold failure probability at (corner, vsb)."""
        corner = float(np.clip(corner, self.corner_grid[0], self.corner_grid[-1]))
        vsb = float(np.clip(vsb, self.vsb_grid[0], self.vsb_grid[-1]))
        return float(np.clip(10.0 ** float(self._interp((corner, vsb))), 0.0, 1.0))

    def vsb_for_target(
        self, corner: float, p_target: float, tolerance: float = 1e-4
    ) -> float:
        """Largest VSB with hold failure probability <= ``p_target``.

        Bisection on the (monotone increasing in VSB) interpolated
        surface; clamps to the grid span.
        """
        lo, hi = float(self.vsb_grid[0]), float(self.vsb_grid[-1])
        if self.probability(corner, hi) <= p_target:
            return hi
        if self.probability(corner, lo) > p_target:
            return lo
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self.probability(corner, mid) <= p_target:
                lo = mid
            else:
                hi = mid
        return lo

    def adaptive_vsb(
        self,
        corner: float,
        organization: ArrayOrganization,
        dac: SourceBiasDAC,
        redundancy_share: float = 0.7,
    ) -> float:
        """The statistical model of the BIST outcome at a corner.

        The BIST stops when the *cumulative* faulty columns — static
        faults plus retention faults — exceed the redundancy.  This
        statistical model only sees the retention component, so only a
        ``redundancy_share`` fraction of the spares is budgeted to it
        (the rest absorbs static faults and field margin).  The modelled
        adaptive bias is the largest DAC code whose expected
        retention-faulty columns ``NC * (1 - (1 - p_hold)^rows)`` stay
        within that budget; driving the expectation all the way to the
        full redundancy would put every die at ~50% repair odds, which
        the per-die BIST (that observes its own faults) never does.
        """
        if not 0.0 < redundancy_share <= 1.0:
            raise ValueError("redundancy_share must be in (0, 1]")
        budget = redundancy_share * organization.redundant_columns
        incr("asb.calibrations")
        best = 0
        for code in range(dac.n_codes):
            incr("asb.vsb_steps")
            p_cell = self.probability(corner, dac.voltage(code))
            p_col = 1.0 - (1.0 - p_cell) ** organization.rows
            if organization.columns * p_col <= budget:
                best = code
            else:
                break
        vsb = dac.voltage(best)
        _log.debug("asb.vsb_selected", corner=corner, code=best, vsb=vsb)
        return vsb


def hold_table(ctx: ExperimentContext) -> HoldProbabilityTable:
    """The context-cached hold-probability surface."""
    if "hold_table" not in ctx.cache:
        ctx.cache["hold_table"] = HoldProbabilityTable(ctx)
    return ctx.cache["hold_table"]


def _power_stats(
    ctx: ExperimentContext, corner: float, vsb: float, n_cells: int
) -> NormalDistribution:
    """Context-cached CLT standby-power distribution at (corner, vsb)."""
    key = ("power", round(corner, 4), round(vsb, 4), n_cells)
    if key not in ctx.cache:
        # A digest, not hash(): str hashes are salted per process, so
        # the sample (and Figs. 9-10) would differ from run to run.
        salt = int(fingerprint(list(key)), 16) & 0xFFFFFFF
        ctx.cache[key] = die_standby_power(
            ctx.tech,
            ctx.geometry,
            ProcessCorner(corner),
            n_cells,
            ctx.asb_conditions(vsb),
            rng=np.random.default_rng((ctx.seed, salt)),
        )
    return ctx.cache[key]


# ----------------------------------------------------------------------
# Fig. 6 — maximum VSB for a target hold-failure probability
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Result:
    """Max source bias meeting P_HF target, per inter-die corner."""

    shifts: np.ndarray
    vsb_max: np.ndarray
    p_target: float

    def rows(self) -> list[str]:
        lines = [f"P_HF target = {self.p_target:.0e}",
                 "shift[mV]  VSB_max[V]"]
        for i, s in enumerate(self.shifts):
            lines.append(f"{s * 1e3:+8.0f}  {self.vsb_max[i]:9.3f}")
        return lines


def fig6(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray = DEFAULT_SHIFTS,
    p_target: float = 1e-3,
) -> Fig6Result:
    """Reproduce Fig. 6: the retention-safe source bias is maximal near
    the nominal corner and shrinks toward both inter-die extremes."""
    ctx = ctx if ctx is not None else default_context()
    table = hold_table(ctx)
    vsb_max = np.array(
        [table.vsb_for_target(float(s), p_target) for s in shifts]
    )
    return Fig6Result(shifts=np.asarray(shifts), vsb_max=vsb_max,
                      p_target=p_target)


# ----------------------------------------------------------------------
# Fig. 8 — VSB(adaptive) vs corner, and the hold failure under it
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig8Result:
    """Adaptive source bias per corner vs the fixed VSB(opt)."""

    shifts: np.ndarray
    vsb_adaptive: np.ndarray       # statistical (table) model
    vsb_bist: np.ndarray           # actual BIST hardware simulation
    vsb_opt: float
    p_hold_opt: np.ndarray
    p_hold_adaptive: np.ndarray

    def rows(self) -> list[str]:
        lines = [f"VSB(opt) = {self.vsb_opt:.3f} V",
                 "shift[mV]  VSB_adapt[V]  VSB_BIST[V]  "
                 "P_HF@opt   P_HF@adapt"]
        for i, s in enumerate(self.shifts):
            lines.append(
                f"{s * 1e3:+8.0f}  {self.vsb_adaptive[i]:11.3f}  "
                f"{self.vsb_bist[i]:10.3f}  {self.p_hold_opt[i]:9.2e}  "
                f"{self.p_hold_adaptive[i]:9.2e}"
            )
        return lines


def fig8(
    ctx: ExperimentContext | None = None,
    shifts: np.ndarray | None = None,
    dac: SourceBiasDAC | None = None,
    organization: ArrayOrganization | None = None,
    bist_seed: int = 81,
) -> Fig8Result:
    """Reproduce Fig. 8: per-corner VSB(adaptive) — from both the
    statistical model and an actual BIST run on a sampled 2KB die —
    against the fixed VSB(opt), with the hold-failure probability each
    policy incurs.

    The default corner span is narrower than Fig. 6's: the per-die BIST
    shares the redundancy between static and retention faults, so dies
    beyond roughly +/-50 mV are already unrepairable before any source
    bias is applied (their static faulty columns exceed the spares) —
    the hardware reports VSB = 0 for them, which is correct but
    uninformative."""
    ctx = ctx if ctx is not None else default_context()
    if shifts is None:
        shifts = np.linspace(-0.05, 0.05, 9)
    dac = dac if dac is not None else SourceBiasDAC()
    organization = (
        organization if organization is not None else default_asb_organization()
    )
    table = hold_table(ctx)
    vsb_opt = table.adaptive_vsb(0.0, organization, dac)

    vsb_adaptive = np.array(
        [table.adaptive_vsb(float(s), organization, dac) for s in shifts]
    )
    loop = SelfAdaptiveSourceBias(dac=dac)
    vsb_bist = np.empty(len(shifts))
    for i, s in enumerate(shifts):
        array = FunctionalMemoryArray(
            ctx.tech,
            organization,
            ctx.criteria,
            geometry=ctx.geometry,
            corner=ProcessCorner(float(s)),
            conditions=ctx.asb_conditions(),
            rng=np.random.default_rng((bist_seed, i)),
        )
        vsb_bist[i] = loop.calibrate_bisect(array).vsb_adaptive

    p_hold_opt = np.array(
        [table.probability(float(s), vsb_opt) for s in shifts]
    )
    p_hold_adaptive = np.array(
        [
            table.probability(float(s), float(v))
            for s, v in zip(shifts, vsb_adaptive)
        ]
    )
    return Fig8Result(
        shifts=np.asarray(shifts),
        vsb_adaptive=vsb_adaptive,
        vsb_bist=vsb_bist,
        vsb_opt=vsb_opt,
        p_hold_opt=p_hold_opt,
        p_hold_adaptive=p_hold_adaptive,
    )


# ----------------------------------------------------------------------
# Fig. 9 — VSB(adaptive) and standby-power distributions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig9Result:
    """Distributions across dies: adaptive VSB and standby power."""

    vsb_samples: np.ndarray          # BIST VSB(adaptive) at a fixed corner
    fixed_corner: float
    power_zero: np.ndarray           # standby power per die [W], vsb = 0
    power_opt: np.ndarray            # at VSB(opt)
    power_adaptive: np.ndarray       # at the per-die adaptive bias
    vsb_opt: float

    def rows(self) -> list[str]:
        v = self.vsb_samples
        lines = [
            f"VSB(adaptive) across {v.size} dies at corner "
            f"{self.fixed_corner * 1e3:+.0f} mV: mean {v.mean():.3f} V, "
            f"std {v.std() * 1e3:.1f} mV (negligible spread)",
            "standby power across the die population [uW]:",
        ]
        for name, p in (("VSB=0", self.power_zero),
                        ("VSB(opt)", self.power_opt),
                        ("VSB(adaptive)", self.power_adaptive)):
            lines.append(
                f"  {name:13s} mean {p.mean() * 1e6:8.2f}  "
                f"p95 {np.quantile(p, 0.95) * 1e6:8.2f}"
            )
        return lines


def fig9(
    ctx: ExperimentContext | None = None,
    fixed_corner: float = -0.02,
    n_bist_dies: int = 12,
    n_power_dies: int = 400,
    sigma_inter: float = 0.05,
    organization: ArrayOrganization | None = None,
    dac: SourceBiasDAC | None = None,
) -> Fig9Result:
    """Reproduce Fig. 9: (a) the BIST lands on essentially the same
    VSB(adaptive) for every die at a given corner (inset), and (b) the
    standby-power distribution across dies with zero, fixed-optimal and
    adaptive source bias."""
    ctx = ctx if ctx is not None else default_context()
    dac = dac if dac is not None else SourceBiasDAC()
    organization = (
        organization if organization is not None else default_asb_organization()
    )
    table = hold_table(ctx)
    vsb_opt = table.adaptive_vsb(0.0, organization, dac)

    loop = SelfAdaptiveSourceBias(dac=dac)
    vsb_samples = np.empty(n_bist_dies)
    for i in range(n_bist_dies):
        array = FunctionalMemoryArray(
            ctx.tech,
            organization,
            ctx.criteria,
            geometry=ctx.geometry,
            corner=ProcessCorner(fixed_corner),
            conditions=ctx.asb_conditions(),
            rng=np.random.default_rng((91, i)),
        )
        vsb_samples[i] = loop.calibrate_bisect(array).vsb_adaptive

    rng = np.random.default_rng((ctx.seed, 92))
    shifts = InterDieDistribution(sigma_inter).sample(rng, n_power_dies)
    n_cells = organization.n_cells
    power = {"zero": np.empty(n_power_dies), "opt": np.empty(n_power_dies),
             "adaptive": np.empty(n_power_dies)}
    for i, s in enumerate(shifts):
        corner = round(float(s), 2)
        vsb_adapt = table.adaptive_vsb(corner, organization, dac)
        for name, vsb in (("zero", 0.0), ("opt", vsb_opt),
                          ("adaptive", vsb_adapt)):
            power[name][i] = float(
                _power_stats(ctx, corner, vsb, n_cells).sample(rng, 1)[0]
            )
    return Fig9Result(
        vsb_samples=vsb_samples,
        fixed_corner=fixed_corner,
        power_zero=power["zero"],
        power_opt=power["opt"],
        power_adaptive=power["adaptive"],
        vsb_opt=vsb_opt,
    )


# ----------------------------------------------------------------------
# Fig. 10 — leakage yield and hold yield vs sigma, three policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig10Result:
    """Leakage / hold yield for VSB in {0, opt, adaptive} vs sigma."""

    sigmas: np.ndarray
    leakage_yield: dict[str, np.ndarray]
    hold_yield: dict[str, np.ndarray]
    p_max: float
    vsb_opt: float

    def rows(self) -> list[str]:
        lines = [
            f"VSB(opt) = {self.vsb_opt:.3f} V, "
            f"P_MAX = {self.p_max * 1e6:.2f} uW",
            "sigma[mV]  " + "  ".join(
                f"Lyield-{k}" for k in ("zero", "opt", "adaptive")
            ) + "  " + "  ".join(
                f"Hyield-{k}" for k in ("zero", "opt", "adaptive")
            ),
        ]
        for i, s in enumerate(self.sigmas):
            ly = "  ".join(
                f"{100 * self.leakage_yield[k][i]:10.1f}"
                for k in ("zero", "opt", "adaptive")
            )
            hy = "  ".join(
                f"{100 * self.hold_yield[k][i]:10.1f}"
                for k in ("zero", "opt", "adaptive")
            )
            lines.append(f"{s * 1e3:8.0f}  {ly}  {hy}")
        return lines


def fig10(
    ctx: ExperimentContext | None = None,
    sigmas: np.ndarray | None = None,
    organization: ArrayOrganization | None = None,
    dac: SourceBiasDAC | None = None,
    p_max_over_zero: float = 2.0,
) -> Fig10Result:
    """Reproduce Fig. 10: the adaptive scheme nearly matches VSB(opt)'s
    leakage yield (far above VSB=0) while keeping the hold yield within
    a few percent of the zero-bias ideal — the paper's headline
    trade-off."""
    ctx = ctx if ctx is not None else default_context()
    dac = dac if dac is not None else SourceBiasDAC()
    organization = (
        organization if organization is not None else default_asb_organization()
    )
    sigmas = sigmas if sigmas is not None else np.linspace(0.01, 0.08, 8)
    table = hold_table(ctx)
    vsb_opt = table.adaptive_vsb(0.0, organization, dac)
    n_cells = organization.n_cells
    # The leakage bound is set relative to the *unbiased* nominal die, so
    # the VSB=0 policy starts around mid yield and the biased policies
    # recover it (the paper's 7-25% leakage-yield gain regime).
    p_max = p_max_over_zero * _power_stats(ctx, 0.0, 0.0, n_cells).mean

    def policy(name: str, corner: ProcessCorner) -> tuple[float, float]:
        """The policy's (5 mV-quantised corner, VSB) for one die.

        Quantising to a 5 mV grid shares the Monte-Carlo power cache
        across the dense integration grid and across sigma values.
        """
        dvt = round(corner.dvt_inter / 0.005) * 0.005
        if name == "zero":
            return dvt, 0.0
        if name == "opt":
            return dvt, vsb_opt
        return dvt, table.adaptive_vsb(dvt, organization, dac)

    leakage: dict[str, np.ndarray] = {}
    hold: dict[str, np.ndarray] = {}
    for name in ("zero", "opt", "adaptive"):

        def power_at(corner: ProcessCorner) -> NormalDistribution:
            return _power_stats(ctx, *policy(name, corner), n_cells)

        def p_cell(corner: ProcessCorner) -> float:
            return table.probability(*policy(name, corner))

        l_series = np.empty(len(sigmas))
        h_series = np.empty(len(sigmas))
        for i, sigma in enumerate(sigmas):
            dist = InterDieDistribution(float(sigma))
            l_series[i] = leakage_yield(dist, power_at, p_max)
            h_series[i] = parametric_yield(p_cell, organization, dist)
        leakage[name] = l_series
        hold[name] = h_series
    return Fig10Result(
        sigmas=np.asarray(sigmas),
        leakage_yield=leakage,
        hold_yield=hold,
        p_max=p_max,
        vsb_opt=vsb_opt,
    )
