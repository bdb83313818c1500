"""Cell failure probability estimation (the paper's [3] methodology).

:class:`CellFailureAnalyzer` estimates, for any inter-die corner and any
body/source-bias point, the probability that a cell fails each of the
four parametric mechanisms under intra-die RDF variation.  Rare
probabilities are resolved by a pluggable sampling strategy (the
``sampler=`` knob): the historical sigma-scaled importance sampling
(:mod:`repro.stats.sampling`), or the adaptive rare-event engine
(:mod:`repro.stats.rare_event` — MPFP-seeded mean-shift IS and
statistical blockade).  Whatever the strategy, one weighted sample set
yields all four mechanisms plus their union, keeping the per-mechanism
estimates consistent (the union is never smaller than a component).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.failures import rendezvous
from repro.failures.criteria import FailureCriteria
from repro.failures.mpfp import MpfpEstimator
from repro.observability import diagnostics
from repro.observability.metrics import observe
from repro.observability.tracing import trace
from repro.sram.cell import TRANSISTORS, CellGeometry, SixTCell, cell_sigma_vt
from repro.sram.metrics import (
    OperatingConditions,
    compute_cell_metrics,
    compute_hold_margin,
)
from repro.stats.montecarlo import MonteCarloResult, probability_of
from repro.stats.rare_event import SAMPLER_NAMES, fails_from_margins, make_sampler
from repro.stats.sampling import importance_sample_dvt
from repro.technology.corners import ProcessCorner
from repro.technology.parameters import TechnologyParameters

if TYPE_CHECKING:  # pragma: no cover - hint-only import
    from repro.parallel.executor import ParallelExecutor

#: Mechanism names in presentation order.
MECHANISMS = ("read", "write", "access", "hold")

#: Largest cell batch handed to the vectorised solvers in one call —
#: bounds the peak working set of a margins evaluation (each cell
#: carries ~10 float64 intermediate arrays through the bisections)
#: without giving up vectorisation.
SOLVE_CHUNK = 16_384

#: Most estimates one rendezvous runs together (each is a thread).
MAX_RENDEZVOUS = 64


def _chunked(
    shift: np.ndarray, z: np.ndarray, evaluate, mechanisms: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Evaluate the rows ``(shift, z)`` through ``evaluate`` in chunks."""
    n = z.shape[0]
    if n <= SOLVE_CHUNK:
        return evaluate(shift, z)
    parts = [
        evaluate(shift[start: start + SOLVE_CHUNK], z[start: start + SOLVE_CHUNK])
        for start in range(0, n, SOLVE_CHUNK)
    ]
    return {
        name: np.concatenate([part[name] for part in parts])
        for name in mechanisms
    }


def _cell(
    analyzer: "CellFailureAnalyzer", shift: np.ndarray, z: np.ndarray
) -> SixTCell:
    """The cells of rows ``z`` at per-row inter-die shifts ``shift``.

    Each device's ΔVt is ``shift + z_i * sigma_i``: the one addition
    :meth:`SixTCell.device` makes of a corner and an intra-die delta,
    so rows at different corners solve side by side, bit for bit.
    """
    sigmas = cell_sigma_vt(analyzer.tech, analyzer.geometry)
    dvt = {
        name: shift + z[:, i] * sigmas[name]
        for i, name in enumerate(TRANSISTORS)
    }
    return SixTCell(analyzer.tech, analyzer.geometry, ProcessCorner(0.0), dvt)


class _Problem:
    """A (corner, bias) estimate's margins, as a sampler-facing problem.

    :meth:`margins` goes through :func:`rendezvous.solve`, so inside a
    batch call the rows of every estimate at the same bias point are
    solved together; the corner travels as a per-row shift.  The legacy
    path solves its own cells and classifies them by :meth:`cell_margins`.
    """

    dims = len(TRANSISTORS)

    def __init__(
        self,
        analyzer: "CellFailureAnalyzer",
        corner: ProcessCorner,
        conditions: OperatingConditions,
    ) -> None:
        self._analyzer = analyzer
        self._corner = corner
        self._conditions = conditions

    def margins(self, z: np.ndarray) -> dict[str, np.ndarray]:
        z = np.atleast_2d(z)
        shift = np.full(z.shape[0], self._corner.dvt_inter)
        key = (type(self), self._analyzer, self._conditions)
        with trace("solve"):
            return rendezvous.solve(key, self._solve, shift, z)

    def _solve(self, shift: np.ndarray, z: np.ndarray) -> dict[str, np.ndarray]:
        """Margins of the rows; depends on the analyzer and bias only."""
        return _chunked(shift, z, self._evaluate, self.mechanisms)

    def _evaluate(self, shift, z) -> dict[str, np.ndarray]:
        return self.cell_margins(_cell(self._analyzer, shift, z))


class _CellProblem(_Problem):
    """The four-mechanism cell margins.

    Margins replicate the :class:`FailureCriteria` predicates exactly
    (``margin < 0`` iff the predicate fires, for every write time the
    solver returns: finite or ``+inf``, never NaN).
    """

    mechanisms = MECHANISMS
    #: The estimates one point reports, in order.
    outcomes = MECHANISMS + ("any",)

    def cell_margins(self, cell: SixTCell) -> dict[str, np.ndarray]:
        metrics = compute_cell_metrics(cell, self._conditions)
        criteria = self._analyzer.criteria
        t_write = np.where(np.isfinite(metrics.t_write), metrics.t_write, 1e6)
        return {
            "read": metrics.read_margin - criteria.delta_read,
            "write": criteria.t_write_max - t_write,
            "access": metrics.i_access - criteria.i_access_min,
            "hold": metrics.hold_margin_fraction - criteria.hold_fraction_min,
        }

    def direction_seeds(self) -> dict[str, np.ndarray]:
        return self._analyzer._direction_seeds(self._conditions)


class _HoldProblem(_Problem):
    """The hold margin alone (the ASB surface's hot path)."""

    mechanisms = ("hold",)
    outcomes = ("hold",)

    def cell_margins(self, cell: SixTCell) -> dict[str, np.ndarray]:
        conditions = self._conditions
        margin = compute_hold_margin(cell, conditions)
        rail = conditions.vdd_standby - conditions.vsb
        return {"hold": margin - self._analyzer.criteria.hold_fraction_min * rail}

    def direction_seeds(self) -> dict[str, np.ndarray]:
        # FORM cannot represent the cliff-like hold limit state; the
        # adaptive sampler's cross-entropy pilot update takes over.
        return {}


def _point(task):
    """Worker entry point: one estimate by the named method (picklable)."""
    method, analyzer, corner, conditions = task
    return getattr(analyzer, method)(corner, conditions)


def _coalesced(tasks: list) -> list:
    """A group of points as one rendezvous (picklable executor task)."""
    return rendezvous.run([functools.partial(_point, t) for t in tasks])


def _rendezvous_width(n_samples: int) -> int:
    """Points per rendezvous at ``n_samples`` cells per estimate.

    A stage of an estimate solves at most about ``n_samples`` rows, so
    ``SOLVE_CHUNK // n_samples`` estimates fill one solver chunk: a
    shared solve is never split again, and a rendezvous holds about one
    chunk of rows at a time.  1 means pointwise.
    """
    return max(1, min(SOLVE_CHUNK // max(n_samples, 1), MAX_RENDEZVOUS))


@dataclass(frozen=True)
class FailureProbabilities:
    """Per-mechanism cell failure probabilities at one (corner, bias)."""

    read: MonteCarloResult
    write: MonteCarloResult
    access: MonteCarloResult
    hold: MonteCarloResult
    any: MonteCarloResult

    def __getitem__(self, mechanism: str) -> MonteCarloResult:
        if mechanism not in MECHANISMS + ("any",):
            raise KeyError(f"unknown mechanism {mechanism!r}")
        return getattr(self, mechanism)

    def as_dict(self) -> dict[str, float]:
        """Point estimates keyed by mechanism (plus ``any``)."""
        return {name: self[name].estimate for name in MECHANISMS + ("any",)}


class CellFailureAnalyzer:
    """Estimates cell failure probabilities under RDF variation.

    Args:
        tech: technology card.
        criteria: calibrated failure thresholds.
        geometry: cell geometry (defaults to the standard cell).
        conditions: baseline operating conditions; per-call overrides
            are provided via the ``conditions`` argument of
            :meth:`failure_probabilities`.
        n_samples: solver-call budget per estimate (for the legacy
            fixed-scale path this is simply the weighted sample count).
        scale: importance-sampling sigma inflation (1.0 = plain MC).
            ``None`` with ``sampler="scaled"`` auto-tunes the inflation
            from a pilot batch; for ``adaptive-is``/``blockade`` it
            sets the exploration/proposal width (None = default 2.0).
        seed: base RNG seed; each (corner, bias) estimate derives its
            own stream so results are reproducible yet independent.
        sampler: rare-event sampling strategy — one of
            :data:`repro.stats.rare_event.SAMPLER_NAMES`.  The default
            ``"scaled"`` with an explicit ``scale`` reproduces the
            historical estimator bit for bit.
    """

    def __init__(
        self,
        tech: TechnologyParameters,
        criteria: FailureCriteria,
        geometry: CellGeometry | None = None,
        conditions: OperatingConditions | None = None,
        n_samples: int = 60_000,
        scale: float | None = 2.0,
        seed: int = 7,
        sampler: str = "scaled",
    ) -> None:
        if sampler not in SAMPLER_NAMES:
            raise ValueError(
                f"unknown sampler {sampler!r}; "
                f"known: {', '.join(SAMPLER_NAMES)}"
            )
        self.tech = tech
        self.criteria = criteria
        self.geometry = geometry if geometry is not None else CellGeometry()
        self.conditions = (
            conditions if conditions is not None else OperatingConditions.nominal(tech)
        )
        self.n_samples = n_samples
        self.scale = scale
        self.seed = seed
        self.sampler = sampler
        #: MPFP direction seeds memoised per bias point — computed once
        #: per (conditions) key and shipped to workers inside the task
        #: pickle (the search is deterministic, so a worker recomputing
        #: it lazily produces the identical seeds).
        self._seed_memo: dict[tuple, dict[str, np.ndarray]] = {}

    @property
    def _legacy_path(self) -> bool:
        """True when the historical single-stage sampler applies.

        ``scaled`` with an explicit scale and ``plain`` go through the
        original :func:`importance_sample_dvt` code path so existing
        results stay bit-identical; the strategy engine handles
        auto-tuned ``scaled``, ``adaptive-is`` and ``blockade``.
        """
        return (
            self.sampler == "plain"
            or (self.sampler == "scaled" and self.scale is not None)
        )

    def surface_key(self, **grid) -> dict:
        """Cache key payload of a grid of estimates: every input besides
        each point's own (corner, bias), plus the ``grid`` fields."""
        return {
            "technology": dataclasses.asdict(self.tech),
            "criteria": dataclasses.asdict(self.criteria),
            "geometry": dataclasses.asdict(self.geometry),
            "n_samples": self.n_samples,
            "scale": self.scale,
            "sampler": self.sampler,
            "seed": self.seed,
            **grid,
        }

    def _direction_seeds(
        self, conditions: OperatingConditions
    ) -> dict[str, np.ndarray]:
        """Memoised MPFP seeds for one bias point (nominal corner).

        The failure *directions* drift only slowly with the inter-die
        corner, so one FORM search per bias point — amortised over a
        whole table grid — seeds every corner's proposal; the pilot
        cross-entropy update re-centres per corner where the pilot
        actually observes failures.
        """
        key = (
            round(conditions.vdd, 9),
            round(conditions.vdd_standby, 9),
            round(conditions.vsb, 9),
            round(conditions.vbody_n, 9),
        )
        memo = self.__dict__.setdefault("_seed_memo", {})
        if key not in memo:
            estimator = MpfpEstimator(
                self.tech, self.criteria, self.geometry, conditions
            )
            with trace("analysis.mpfp_seeds"):
                memo[key] = estimator.direction_seeds(ProcessCorner(0.0))
        return memo[key]

    def _seed_for(
        self, corner: ProcessCorner, conditions: OperatingConditions
    ) -> np.random.SeedSequence:
        """Per-(corner, bias) seed, stable across processes.

        Each key field is rounded to nanovolt resolution and folded into
        the :class:`~numpy.random.SeedSequence` entropy directly — no
        ``hash()`` in the loop, so the derivation is collision-resistant
        over the full field width and identical in every worker process,
        which the parallel engine's determinism guarantee depends on.
        """

        def word(value: float) -> int:
            return int(round(value * 1e9)) & 0xFFFFFFFFFFFFFFFF

        return np.random.SeedSequence(
            entropy=[
                self.seed,
                word(corner.dvt_inter),
                word(conditions.vbody_n),
                word(conditions.vsb),
                word(conditions.vdd),
                word(conditions.vdd_standby),
            ]
        )

    def _estimate(
        self,
        problem: _Problem,
        corner: ProcessCorner,
        conditions: OperatingConditions,
    ) -> dict[str, MonteCarloResult]:
        """The estimates of ``problem.outcomes`` at one (corner, bias):
        the strategy sampler's, or the historical single-stage draw's
        (:attr:`_legacy_path`), classified by the problem's margins."""
        seed = self._seed_for(corner, conditions)
        if self._legacy_path:
            rng = np.random.default_rng(seed)
            scale = 1.0 if self.sampler == "plain" else self.scale
            with trace("sample"):
                sample = importance_sample_dvt(
                    self.tech, self.geometry, rng, self.n_samples, scale
                )
            with trace("solve"):
                margins = problem.cell_margins(
                    SixTCell(self.tech, self.geometry, corner, sample.dvt)
                )
            fails = fails_from_margins(margins, problem.mechanisms)
            weights, n_solved = sample.weights, sample.n_samples
        else:
            out = make_sampler(self.sampler, self.scale).sample(
                problem, seed, self.n_samples
            )
            fails, weights, n_solved = out.fails, out.weights, out.n_solved
        observe("analysis.solver_calls", n_solved)
        results = {
            name: probability_of(fails[name], weights)
            for name in problem.outcomes
        }
        for name, result in results.items():
            diagnostics.record(f"analysis.{name}", result)
        return results

    def failure_probabilities(
        self,
        corner: ProcessCorner,
        conditions: OperatingConditions | None = None,
    ) -> FailureProbabilities:
        """Estimate all mechanism probabilities at ``corner``.

        Args:
            corner: the die's inter-die Vt shift.
            conditions: bias overrides; defaults to the analyzer's
                baseline conditions.
        """
        conditions = conditions if conditions is not None else self.conditions
        with trace("analysis.point"):
            return FailureProbabilities(
                **self._estimate(
                    _CellProblem(self, corner, conditions), corner, conditions
                )
            )

    def failure_probabilities_batch(
        self,
        corners: Sequence[ProcessCorner],
        conditions_list: Sequence[OperatingConditions | None] | None = None,
        executor: "ParallelExecutor | None" = None,
    ) -> list[FailureProbabilities]:
        """:meth:`failure_probabilities` over a whole sweep at once.

        Args:
            corners: evaluation corners, one per sweep point.
            conditions_list: per-point bias overrides (same length as
                ``corners``); None applies the analyzer baseline to
                every point.
            executor: fan-out engine; None (or ``workers=1``) evaluates
                inline.  Because every point derives its RNG stream
                from its own (corner, bias) key via :meth:`_seed_for`,
                the results are bit-identical at any worker count.

        Outside the legacy path, without a pool, the points'
        estimates run stage by stage together in groups of
        :func:`_rendezvous_width` (:mod:`repro.failures.rendezvous`):
        every pilot of a group at one bias point is one solver call,
        then every main stage.  A serial executor runs each group as
        one task; a pool runs one task per point.
        """
        tasks = self._tasks("failure_probabilities", corners, conditions_list)
        if self.sampler == "adaptive-is":
            # Warm the MPFP seed memo for every distinct bias point
            # *before* fan-out: the seeds ride to the workers inside
            # the pickled analyzer, so the (one-off) FORM search runs
            # once per table build instead of once per worker.
            for *_, conditions in tasks:
                self._direction_seeds(
                    conditions if conditions is not None else self.conditions
                )
        return self._map(tasks, executor)

    def hold_failure_probability_batch(
        self,
        corners: Sequence[ProcessCorner],
        conditions_list: Sequence[OperatingConditions | None] | None = None,
        executor: "ParallelExecutor | None" = None,
    ) -> list[MonteCarloResult]:
        """:meth:`hold_failure_probability` over a whole sweep at once.

        Same fan-out, batching and determinism contract as
        :meth:`failure_probabilities_batch`; this is the hot path of
        the ASB (corner, VSB) surface build.
        """
        return self._map(
            self._tasks("hold_failure_probability", corners, conditions_list),
            executor,
        )

    def _tasks(self, method: str, corners, conditions_list) -> list[tuple]:
        if conditions_list is None:
            conditions_list = [None] * len(corners)
        if len(conditions_list) != len(corners):
            raise ValueError(
                f"conditions_list has {len(conditions_list)} entries "
                f"for {len(corners)} corners"
            )
        return [
            (method, self, corner, conditions)
            for corner, conditions in zip(corners, conditions_list)
        ]

    def _map(self, tasks: list, executor) -> list:
        """The estimates of ``tasks``: inline in row-limited rendezvous
        groups, else pointwise (the legacy path, a pool, or estimates
        of a solver chunk each)."""
        width = _rendezvous_width(self.n_samples)
        inline = executor is None or executor.is_serial
        if self._legacy_path or width == 1 or not inline:
            if executor is None:
                return [_point(task) for task in tasks]
            return executor.map(_point, tasks)
        groups = [
            tasks[start: start + width] for start in range(0, len(tasks), width)
        ]
        if executor is None:
            parts = [_coalesced(group) for group in groups]
        else:
            parts = executor.map(_coalesced, groups)
        return [result for part in parts for result in part]

    def hold_failure_probability(
        self,
        corner: ProcessCorner,
        conditions: OperatingConditions | None = None,
    ) -> MonteCarloResult:
        """Hold-mechanism probability only (hot path for ASB sweeps)."""
        conditions = conditions if conditions is not None else self.conditions
        with trace("analysis.hold_point"):
            problem = _HoldProblem(self, corner, conditions)
            return self._estimate(problem, corner, conditions)["hold"]
