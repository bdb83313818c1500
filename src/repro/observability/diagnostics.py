"""Estimator-health diagnostics: can the numbers be believed?

Every headline number the library produces — parametric failure
probabilities, ABB/ASB yield gains, hold-failure reductions — is a
Monte-Carlo estimate.  The telemetry layer records *what ran*; this
module records *whether the results converged*:

* **Interval estimators** — :func:`wilson_interval` (score interval,
  well-behaved at extreme probabilities and fractional effective
  counts) and :func:`clopper_pearson_interval` (exact, conservative)
  for binomial probabilities;
* **Importance-sampling weight health** — :func:`weight_diagnostics`
  computes the Kish effective sample size, the ESS fraction, and the
  largest single weight's share of the total, the three numbers that
  tell a degenerate proposal from a healthy one;
* **A mergeable recorder** — :data:`recorder` aggregates per-estimate
  diagnostics into named *scopes* (``analysis.hold``,
  ``table[vbody=+0.000]``, ``lot.yield``, ...), merges across the
  :class:`~repro.parallel.executor.ParallelExecutor` worker boundary
  like the metrics registry, and judges each scope against configurable
  :class:`DiagnosticThresholds` — the engine behind the experiment
  CLI's ``--diagnostics`` / ``--strict-diagnostics`` gate and the
  ``diagnostics`` block of the ``repro.telemetry/1`` snapshot.

Every edge case is well-defined by construction: zero draws, all-zero
weights, and a single dominant weight produce ``ess = 0`` (or 1) and
the maximally uninformative interval ``[0, 1]`` — never a NaN.

Like the rest of :mod:`repro.observability`, recording is a no-op
while collection is disabled and otherwise lands in the active run
scope's recorder, or in the process-wide :data:`recorder` (the
root's) outside any run; the *pure* helpers (intervals, weight
diagnostics) are always available and are used by the stats stack to
attach uncertainty to its results unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.observability import _state

#: z-score of the default 95% two-sided interval.
DEFAULT_Z = 1.959963984540054

#: Default effective-sample-size floor below which an estimate is
#: flagged unconverged (overridable per run via ``--min-ess``).
DEFAULT_MIN_ESS = 200.0


# ----------------------------------------------------------------------
# Interval estimators
# ----------------------------------------------------------------------
def wilson_interval(
    successes: float, n: float, z: float = DEFAULT_Z
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Accepts *fractional* counts so it can be evaluated at an effective
    sample size (``n = ESS``, ``successes = p * ESS``) for weighted
    estimators.  ``n <= 0`` returns the maximally uninformative
    ``(0, 1)`` — a zero-information sample constrains nothing.
    """
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    if n <= 0 or not math.isfinite(n):
        return (0.0, 1.0)
    p = min(max(successes / n, 0.0), 1.0)
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    # Pin the exact edges: at p = 0 (or 1) center and half are equal in
    # exact arithmetic, but their float difference leaves ~1e-19 residue.
    low = 0.0 if p == 0.0 else max(0.0, center - half)
    high = 1.0 if p == 1.0 else min(1.0, center + half)
    return (low, high)


def clopper_pearson_interval(
    successes: int, n: int, alpha: float = 0.05
) -> tuple[float, float]:
    """Exact (Clopper-Pearson) binomial interval via the Beta quantile.

    Conservative by construction — coverage is at least ``1 - alpha``
    at every true probability.  ``n = 0`` returns ``(0, 1)``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if n <= 0:
        return (0.0, 1.0)
    k = min(max(int(successes), 0), int(n))
    from scipy.special import betaincinv  # the cell kernel loads no scipy

    low = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2.0))
    high = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return (low, high)


# ----------------------------------------------------------------------
# Importance-sampling weight health
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WeightDiagnostics:
    """Health summary of one likelihood-ratio weight vector.

    Attributes:
        n_draws: raw draws behind the weights.
        ess: Kish effective sample size ``(sum w)^2 / sum w^2``.
        ess_ratio: ``ess / n_draws`` (1.0 = plain MC, small = the
            proposal wastes most of its draws).
        max_weight_fraction: largest single weight / total weight —
            near 1.0 means one sample dominates the whole estimate.
    """

    n_draws: int
    ess: float
    ess_ratio: float
    max_weight_fraction: float


def weight_diagnostics(weights: np.ndarray) -> WeightDiagnostics:
    """Kish ESS and weight-concentration diagnostics for ``weights``.

    Degenerate inputs are well-defined rather than NaN: zero draws or
    an all-zero (or non-finite-total) weight vector report
    ``ess = ess_ratio = max_weight_fraction = 0``.
    """
    weights = np.asarray(weights, dtype=float)
    n = int(weights.size)
    if n == 0:
        return WeightDiagnostics(0, 0.0, 0.0, 0.0)
    total = float(np.sum(weights))
    total_sq = float(np.sum(np.square(weights)))
    if total <= 0.0 or total_sq <= 0.0 or not math.isfinite(total):
        return WeightDiagnostics(n, 0.0, 0.0, 0.0)
    ess = total * total / total_sq
    return WeightDiagnostics(
        n_draws=n,
        ess=ess,
        ess_ratio=ess / n,
        max_weight_fraction=float(np.max(weights)) / total,
    )


# ----------------------------------------------------------------------
# Convergence thresholds + assessment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiagnosticThresholds:
    """What "converged" means for one run.

    Attributes:
        min_ess: effective-sample-size floor per estimate.
        max_ci_halfwidth: optional absolute ceiling on the 95% CI
            half-width (``None`` disables the check — the right
            default, since an absolute width means different things
            at p ~ 0.5 and p ~ 1e-7).
    """

    min_ess: float = DEFAULT_MIN_ESS
    max_ci_halfwidth: float | None = None

    def as_dict(self) -> dict:
        return {
            "min_ess": self.min_ess,
            "max_ci_halfwidth": self.max_ci_halfwidth,
        }


def assess(result, thresholds: DiagnosticThresholds) -> list[str]:
    """Why ``result`` fails ``thresholds`` (empty list = converged).

    ``result`` is anything with the :class:`~repro.stats.montecarlo.
    MonteCarloResult` diagnostic surface (``ess``, ``ci_halfwidth``);
    a result that never had diagnostics attached (``ess is None``)
    passes — there is nothing to judge.
    """
    reasons = []
    ess = getattr(result, "ess", None)
    if ess is not None and ess < thresholds.min_ess:
        reasons.append(
            f"ess {ess:.1f} below the {thresholds.min_ess:g} floor"
        )
    halfwidth = getattr(result, "ci_halfwidth", None)
    if (
        thresholds.max_ci_halfwidth is not None
        and halfwidth is not None
        and halfwidth > thresholds.max_ci_halfwidth
    ):
        reasons.append(
            f"ci half-width {halfwidth:.3g} above the "
            f"{thresholds.max_ci_halfwidth:g} ceiling"
        )
    return reasons


@dataclass(frozen=True)
class BatchDiagnostics:
    """Aggregate estimator health of one batch of estimates.

    The per-build summary a table attaches to itself: how many grid
    estimates it rests on, how many failed the active thresholds, and
    the worst-case interval width / effective sample size among them.
    """

    n_estimates: int
    unconverged: int
    worst_ci_halfwidth: float | None
    min_ess: float | None
    min_ess_ratio: float | None

    def as_dict(self) -> dict:
        return {
            "n_estimates": self.n_estimates,
            "unconverged": self.unconverged,
            "worst_ci_halfwidth": self.worst_ci_halfwidth,
            "min_ess": self.min_ess,
            "min_ess_ratio": self.min_ess_ratio,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BatchDiagnostics":
        return cls(
            n_estimates=int(payload["n_estimates"]),
            unconverged=int(payload["unconverged"]),
            worst_ci_halfwidth=payload.get("worst_ci_halfwidth"),
            min_ess=payload.get("min_ess"),
            min_ess_ratio=payload.get("min_ess_ratio"),
        )


def summarize(
    results, thresholds: DiagnosticThresholds | None = None
) -> BatchDiagnostics:
    """Fold a sequence of estimate results into a :class:`BatchDiagnostics`.

    ``thresholds=None`` judges against the process-wide recorder's
    thresholds (what ``--min-ess`` configured for this run).
    """
    thresholds = thresholds if thresholds is not None else recorder.thresholds
    n = 0
    unconverged = 0
    worst_halfwidth: float | None = None
    min_ess: float | None = None
    min_ratio: float | None = None
    for result in results:
        n += 1
        if assess(result, thresholds):
            unconverged += 1
        halfwidth = getattr(result, "ci_halfwidth", None)
        if halfwidth is not None and (
            worst_halfwidth is None or halfwidth > worst_halfwidth
        ):
            worst_halfwidth = halfwidth
        ess = getattr(result, "ess", None)
        if ess is not None and (min_ess is None or ess < min_ess):
            min_ess = ess
        ratio = getattr(result, "ess_ratio", None)
        if ratio is not None and (min_ratio is None or ratio < min_ratio):
            min_ratio = ratio
    return BatchDiagnostics(
        n_estimates=n,
        unconverged=unconverged,
        worst_ci_halfwidth=worst_halfwidth,
        min_ess=min_ess,
        min_ess_ratio=min_ratio,
    )


# ----------------------------------------------------------------------
# The mergeable recorder
# ----------------------------------------------------------------------
class _ScopeAggregate:
    """Running min/max aggregates of every estimate seen in one scope."""

    __slots__ = (
        "n_estimates",
        "min_ess",
        "min_ess_ratio",
        "max_ci_halfwidth",
        "max_stderr",
        "max_weight_fraction",
    )

    def __init__(self) -> None:
        self.n_estimates = 0
        self.min_ess: float | None = None
        self.min_ess_ratio: float | None = None
        self.max_ci_halfwidth: float | None = None
        self.max_stderr: float | None = None
        self.max_weight_fraction: float | None = None

    @staticmethod
    def _lo(current: float | None, incoming: float | None) -> float | None:
        if incoming is None:
            return current
        return incoming if current is None else min(current, incoming)

    @staticmethod
    def _hi(current: float | None, incoming: float | None) -> float | None:
        if incoming is None:
            return current
        return incoming if current is None else max(current, incoming)

    def observe(self, result) -> None:
        self.n_estimates += 1
        self.min_ess = self._lo(self.min_ess, getattr(result, "ess", None))
        self.min_ess_ratio = self._lo(
            self.min_ess_ratio, getattr(result, "ess_ratio", None)
        )
        self.max_ci_halfwidth = self._hi(
            self.max_ci_halfwidth, getattr(result, "ci_halfwidth", None)
        )
        stderr = getattr(result, "stderr", None)
        if stderr is not None and math.isfinite(stderr):
            self.max_stderr = self._hi(self.max_stderr, stderr)
        self.max_weight_fraction = self._hi(
            self.max_weight_fraction,
            getattr(result, "max_weight_fraction", None),
        )

    def as_dict(self) -> dict:
        return {
            "n_estimates": self.n_estimates,
            "min_ess": self.min_ess,
            "min_ess_ratio": self.min_ess_ratio,
            "max_ci_halfwidth": self.max_ci_halfwidth,
            "max_stderr": self.max_stderr,
            "max_weight_fraction": self.max_weight_fraction,
        }

    def merge_summary(self, summary: dict) -> None:
        self.n_estimates += int(summary.get("n_estimates", 0))
        self.min_ess = self._lo(self.min_ess, summary.get("min_ess"))
        self.min_ess_ratio = self._lo(
            self.min_ess_ratio, summary.get("min_ess_ratio")
        )
        self.max_ci_halfwidth = self._hi(
            self.max_ci_halfwidth, summary.get("max_ci_halfwidth")
        )
        self.max_stderr = self._hi(self.max_stderr, summary.get("max_stderr"))
        self.max_weight_fraction = self._hi(
            self.max_weight_fraction, summary.get("max_weight_fraction")
        )

    def violations(self, thresholds: DiagnosticThresholds) -> list[str]:
        """Threshold failures judged on the aggregates.

        Judging mins/maxes is exactly as strict as judging every
        estimate individually, so the verdict is independent of where
        (worker or parent) the estimates were recorded.
        """
        reasons = []
        if self.min_ess is not None and self.min_ess < thresholds.min_ess:
            reasons.append(
                f"min ess {self.min_ess:.1f} below the "
                f"{thresholds.min_ess:g} floor"
            )
        if (
            thresholds.max_ci_halfwidth is not None
            and self.max_ci_halfwidth is not None
            and self.max_ci_halfwidth > thresholds.max_ci_halfwidth
        ):
            reasons.append(
                f"max ci half-width {self.max_ci_halfwidth:.3g} above "
                f"the {thresholds.max_ci_halfwidth:g} ceiling"
            )
        return reasons


class DiagnosticsRecorder:
    """Per-scope estimator-health aggregates with cross-process merge.

    Mirrors the :class:`~repro.observability.metrics.MetricsRegistry`
    contract: :meth:`snapshot` to a JSON-ready dict, :meth:`merge` a
    worker's snapshot back in, :meth:`reset` between collection scopes.
    Thresholds survive :meth:`reset` — they describe the *run*, not the
    data.
    """

    def __init__(self) -> None:
        self._scopes: dict[str, _ScopeAggregate] = {}
        self.thresholds = DiagnosticThresholds()

    def configure(self, thresholds: DiagnosticThresholds) -> None:
        """Set the convergence thresholds this run is judged against."""
        self.thresholds = thresholds

    def record(self, scope: str, result) -> None:
        """Fold one estimate's diagnostics into ``scope``."""
        aggregate = self._scopes.get(scope)
        if aggregate is None:
            aggregate = self._scopes[scope] = _ScopeAggregate()
        aggregate.observe(result)

    def record_batch(self, scope: str, batch: BatchDiagnostics) -> None:
        """Fold a stored :class:`BatchDiagnostics` into ``scope``.

        How cache-restored artifacts keep reporting their health: a
        warm run re-records the summary persisted at build time, so
        its convergence verdict matches the cold run that built it.
        """
        aggregate = self._scopes.get(scope)
        if aggregate is None:
            aggregate = self._scopes[scope] = _ScopeAggregate()
        aggregate.merge_summary(
            {
                "n_estimates": batch.n_estimates,
                "min_ess": batch.min_ess,
                "min_ess_ratio": batch.min_ess_ratio,
                "max_ci_halfwidth": batch.worst_ci_halfwidth,
            }
        )

    def reset(self) -> None:
        """Drop every scope (thresholds are kept)."""
        self._scopes.clear()

    def unconverged(self) -> dict[str, list[str]]:
        """Scope -> threshold failures, for every failing scope."""
        out: dict[str, list[str]] = {}
        for name, aggregate in sorted(self._scopes.items()):
            reasons = aggregate.violations(self.thresholds)
            if reasons:
                out[name] = reasons
        return out

    def snapshot(self) -> dict:
        """The ``diagnostics`` block of the telemetry report.

        Shape (additive under the unchanged ``repro.telemetry/1``
        schema — see ``docs/observability.md``)::

            {"thresholds": {"min_ess": ..., "max_ci_halfwidth": ...},
             "unconverged_scopes": ["analysis.hold", ...],
             "scopes": {name: {n_estimates, min_ess, min_ess_ratio,
                               max_ci_halfwidth, max_stderr,
                               max_weight_fraction, converged}}}
        """
        failing = self.unconverged()
        return {
            "thresholds": self.thresholds.as_dict(),
            "unconverged_scopes": sorted(failing),
            "scopes": {
                name: {**aggregate.as_dict(), "converged": name not in failing}
                for name, aggregate in sorted(self._scopes.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Only the scope aggregates travel; the ``converged`` verdicts
        are recomputed against *this* recorder's thresholds, so a
        worker with default thresholds cannot launder an unconverged
        estimate past a stricter parent.
        """
        for name, summary in snapshot.get("scopes", {}).items():
            aggregate = self._scopes.get(name)
            if aggregate is None:
                aggregate = self._scopes[name] = _ScopeAggregate()
            aggregate.merge_summary(summary)


#: The process-wide recorder: the root scope's, where every run scope
#: folds in on exit.
recorder = _state.root.recorder = DiagnosticsRecorder()


def record(scope: str, result) -> None:
    """Record ``result`` under ``scope`` — no-op while collection is off."""
    if _state.enabled:
        _state.scope_var.get().recorder.record(scope, result)


def record_batch(scope: str, batch: BatchDiagnostics) -> None:
    """Record a stored batch summary — no-op while collection is off."""
    if _state.enabled:
        _state.scope_var.get().recorder.record_batch(scope, batch)
