"""Adaptive rare-event sampling strategies (MPFP-seeded IS, blockade).

The fixed sigma-scaled proposal in :mod:`repro.stats.sampling` spends
most of its budget far from any failure boundary: at ``scale = 2`` in
the cell's 6-dimensional Vt space the Kish effective-sample-size
fraction is ``(s^2 / sqrt(2 s^2 - 1))^-6 ~ 0.08``, and resolving a
1e-6-deep tail still needs tens of thousands of solver calls per
estimate.  This module supplies the strategy layer behind the
``sampler=`` knob of :class:`repro.failures.analysis.CellFailureAnalyzer`:

* :class:`PlainSampler` — unweighted Monte Carlo (the reference);
* :class:`ScaledSampler` — the sigma-inflated proposal, optionally
  auto-tuning its scale from a pilot batch instead of the historical
  hard-coded 2.0;
* :class:`AdaptiveIsSampler` — MPFP-seeded mean-shift importance
  sampling: a pilot batch explores, per-mechanism shift vectors come
  from the most-probable-failure points (FORM) and/or a cross-entropy
  update on the weighted failure indicator, and the main batch draws
  from a defensive Gaussian mixture centred on those shifts;
* :class:`BlockadeSampler` — statistical blockade: a linear margin
  model fit on the pilot filters the main draws so the expensive
  solvers only run on tail-region candidates, with a conservative
  unblocking threshold keeping the estimator's bias negligible.

Every sampler works on an abstract :class:`FailureProblem` (margins in
normalised z-space, ``z_i = dVt_i / sigma_i``), stays deterministic
given its :class:`~numpy.random.SeedSequence`, and returns likelihood-
ratio weights whose mean is ~1, so the existing
:func:`repro.stats.montecarlo.probability_of` estimator — Wilson CI at
the Kish ESS included — applies unchanged.

Multi-stage estimates use *per-stage weighting*: a stage's samples
carry ``phi(z) / q_s(z)`` against their own proposal, so a pooled mean
is the budget-weighted convex combination of per-stage unbiased
estimates.  This matters because the later proposals are *adapted
from* the pilot — reweighting the pilot rows by a mixture that was
aimed at their own failure points (the balance heuristic of Owen &
Zhou) systematically down-weights exactly those rows and biases the
estimate low.  With per-stage weights the adaptation enters only
through the later proposal, which is a fixed function of the pilot,
and conditional unbiasedness telescopes.  Stages that share one fixed
proposal (the blockade) still use the balance heuristic, where it is
exactly the per-stage weighting anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
from scipy.special import ndtri

from repro.observability.diagnostics import weight_diagnostics
from repro.observability.metrics import incr, observe, set_gauge

#: Strategy names accepted by ``sampler=`` knobs and the CLI.
SAMPLER_NAMES = ("plain", "scaled", "adaptive-is", "blockade")

#: Bounds on any auto-tuned sigma inflation.
_SCALE_MIN, _SCALE_MAX = 1.05, 3.0

#: Exploration inflation used by pilot batches when nothing better is
#: known (the historical fixed proposal).
_EXPLORE_SCALE = 2.0

_LOG_2PI = float(np.log(2.0 * np.pi))


def tuned_scale(target_probability: float, dims: int) -> float:
    """The sigma inflation matched to a tail of depth ``target_probability``.

    An isotropic proposal ``N(0, s^2 I)`` puts its typical sample at
    radius ``s * sqrt(dims)``; aiming that at the tail depth
    ``beta = Phi^-1(1 - p)`` gives ``s = beta / sqrt(dims)``.  For the
    6-dimensional cell at the ~4e-4 union target this lands near 1.37
    (ESS fraction ~0.48) where the historical hard-coded 2.0 sits at
    ~0.08.  Clipped to ``[1.05, 3.0]`` so degenerate targets still
    yield a usable proposal.
    """
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    p = float(np.clip(target_probability, 1e-12, 0.5))
    beta = float(-ndtri(p))
    return float(np.clip(beta / np.sqrt(dims), _SCALE_MIN, _SCALE_MAX))


class FailureProblem(Protocol):
    """What a sampler needs to know about one failure estimation task.

    Margins are *continuous* per-mechanism pass/fail distances in
    normalised z-space: negative means the mechanism fails.  A margins
    call is the expensive operation (it runs the circuit solvers), so
    samplers budget it in whole batches.
    """

    @property
    def dims(self) -> int:
        """Dimensionality of the z-space."""

    @property
    def mechanisms(self) -> tuple[str, ...]:
        """Mechanism names, in reporting order."""

    def margins(self, z: np.ndarray) -> dict[str, np.ndarray]:
        """Continuous margins for a (n, dims) z batch; negative = fail."""

    def direction_seeds(self) -> dict[str, np.ndarray]:
        """Known failure directions (e.g. MPFP z-vectors) per mechanism.

        May be empty or partial; samplers fall back to cross-entropy
        shifts learned from the pilot batch for missing mechanisms.
        """


@dataclass(frozen=True)
class GaussianMixture:
    """An isotropic Gaussian mixture proposal in z-space.

    Components are ``alphas[k] * N(means[k], scales[k]^2 I)``; the
    standard normal (the *nominal* distribution of z) is the special
    case of a single zero-mean unit-scale component.
    """

    means: np.ndarray  # (k, d)
    scales: np.ndarray  # (k,)
    alphas: np.ndarray  # (k,)

    def __post_init__(self) -> None:
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        scales = np.atleast_1d(np.asarray(self.scales, dtype=float))
        alphas = np.atleast_1d(np.asarray(self.alphas, dtype=float))
        if means.shape[0] != scales.size or scales.size != alphas.size:
            raise ValueError("means, scales and alphas must align")
        if np.any(scales <= 0):
            raise ValueError("component scales must be positive")
        if np.any(alphas <= 0) or not np.isclose(alphas.sum(), 1.0):
            raise ValueError("alphas must be positive and sum to 1")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "alphas", alphas / alphas.sum())

    @classmethod
    def centered(cls, dims: int, scale: float = 1.0) -> "GaussianMixture":
        """A single zero-mean component (plain or sigma-scaled)."""
        return cls(
            means=np.zeros((1, dims)),
            scales=np.array([scale]),
            alphas=np.array([1.0]),
        )

    @property
    def dims(self) -> int:
        return self.means.shape[1]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw an (n, dims) batch."""
        k = self.alphas.size
        choices = rng.choice(k, size=n, p=self.alphas)
        z = rng.standard_normal((n, self.dims))
        z *= self.scales[choices, None]
        z += self.means[choices]
        return z

    def logpdf(self, z: np.ndarray) -> np.ndarray:
        """Log density of each row of ``z`` under the mixture."""
        z = np.atleast_2d(z)
        d = self.dims
        parts = np.empty((self.alphas.size, z.shape[0]))
        for k in range(self.alphas.size):
            delta = z - self.means[k]
            q = np.einsum("ij,ij->i", delta, delta) / (self.scales[k] ** 2)
            parts[k] = (
                np.log(self.alphas[k])
                - 0.5 * d * _LOG_2PI
                - d * np.log(self.scales[k])
                - 0.5 * q
            )
        top = parts.max(axis=0)
        return top + np.log(np.exp(parts - top).sum(axis=0))


def standard_normal_logpdf(z: np.ndarray) -> np.ndarray:
    """Log density of the nominal N(0, I) distribution."""
    z = np.atleast_2d(z)
    return -0.5 * z.shape[1] * _LOG_2PI - 0.5 * np.einsum(
        "ij,ij->i", z, z
    )


def balance_heuristic_weights(
    stages: list[tuple[GaussianMixture, np.ndarray]],
) -> np.ndarray:
    """Likelihood-ratio weights for samples pooled across proposals.

    ``stages`` is a list of ``(proposal, z_batch)`` pairs.  Every
    pooled sample is weighted as if drawn from the *deterministic
    mixture* of all stage proposals (each weighted by its share of the
    pooled budget), which is the balance heuristic of multiple
    importance sampling: unbiased for the pooled mean, and the weight
    of any sample is bounded by the most-covering proposal that could
    have produced it.
    """
    sizes = [z.shape[0] for _, z in stages]
    total = sum(sizes)
    if total == 0:
        raise ValueError("cannot weight an empty sample pool")
    z_all = np.vstack([z for _, z in stages])
    log_fractions = np.log(np.array(sizes, dtype=float) / total)
    log_q = np.empty((len(stages), total))
    for s, (proposal, _) in enumerate(stages):
        log_q[s] = log_fractions[s] + proposal.logpdf(z_all)
    top = log_q.max(axis=0)
    log_mix = top + np.log(np.exp(log_q - top).sum(axis=0))
    return np.exp(standard_normal_logpdf(z_all) - log_mix)


def per_stage_weights(
    stages: list[tuple[GaussianMixture, np.ndarray]],
) -> np.ndarray:
    """Likelihood-ratio weights with each stage against its own proposal.

    The pooled mean ``(1/N) sum(w * f)`` is then the budget-weighted
    convex combination of per-stage unbiased estimates.  Unlike the
    balance heuristic this stays unbiased when later proposals were
    *adapted from* earlier stages' samples: each stage's weights never
    reference a density that depends on that stage's own draws.
    """
    if not stages or all(z.shape[0] == 0 for _, z in stages):
        raise ValueError("cannot weight an empty sample pool")
    return np.concatenate(
        [
            np.exp(standard_normal_logpdf(z) - proposal.logpdf(z))
            for proposal, z in stages
        ]
    )


@dataclass(frozen=True)
class RareEventSample:
    """One sampler run: pooled indicators, weights, and its true cost.

    Attributes:
        weights: likelihood ratios vs the nominal distribution, one per
            drawn sample (``mean ~ 1``).
        fails: per-mechanism boolean indicators plus the ``"any"``
            union, aligned with ``weights``.
        n_drawn: samples drawn from the proposals.
        n_solved: samples the expensive margins were evaluated on —
            the honest solver-call cost (< ``n_drawn`` only for the
            blockade, where blocked samples are scored pass unsolved).
        info: sampler-reported telemetry (e.g. the tuned scale), also
            exported as ``sampler.*`` gauges.
    """

    weights: np.ndarray
    fails: dict[str, np.ndarray]
    n_drawn: int
    n_solved: int
    info: dict[str, float] = field(default_factory=dict)


def _pilot_size(budget: int) -> int:
    """Pilot allocation: enough to learn from, never most of the budget."""
    return max(min(budget // 3, 2048), min(64, budget))


def fails_from_margins(
    margins: dict[str, np.ndarray], mechanisms: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """``margin < 0`` per mechanism, plus the ``"any"`` union."""
    fails = {name: margins[name] < 0.0 for name in mechanisms}
    any_fail = np.zeros_like(next(iter(fails.values())), dtype=bool)
    for indicator in fails.values():
        any_fail |= indicator
    fails["any"] = any_fail
    return fails


def _pool_margins(
    parts: list[dict[str, np.ndarray]], mechanisms: tuple[str, ...]
) -> dict[str, np.ndarray]:
    return {
        name: np.concatenate([part[name] for part in parts])
        for name in mechanisms
    }


def _record_telemetry(sample: RareEventSample, sampler_name: str) -> None:
    """Mirror the sampling-kernel telemetry for strategy-drawn batches."""
    incr("sampling.draws")
    incr("sampling.cells", sample.n_drawn)
    health = weight_diagnostics(sample.weights)
    observe("sampling.ess_fraction", health.ess_ratio)
    observe("sampling.max_weight_fraction", health.max_weight_fraction)
    for key, value in sample.info.items():
        set_gauge(f"sampler.{key}", value)


class PlainSampler:
    """Unweighted Monte Carlo — the reference the others are tested against."""

    name = "plain"

    def sample(
        self,
        problem: FailureProblem,
        seed: np.random.SeedSequence,
        budget: int,
    ) -> RareEventSample:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((budget, problem.dims))
        fails = fails_from_margins(problem.margins(z), problem.mechanisms)
        sample = RareEventSample(
            weights=np.ones(budget),
            fails=fails,
            n_drawn=budget,
            n_solved=budget,
        )
        _record_telemetry(sample, self.name)
        return sample


class ScaledSampler:
    """Sigma-inflated proposal, optionally pilot-tuned.

    With a fixed ``scale`` this reproduces the historical estimator.
    With ``scale=None`` a pilot batch at the exploration inflation
    estimates the union failure probability, :func:`tuned_scale` maps
    it to the matched inflation, and the main batch redraws there; the
    two stages are pooled with per-stage weights (see
    :func:`per_stage_weights`) so the pilot's solver calls still
    contribute to the estimate without the adapted-proposal bias.
    """

    name = "scaled"

    def __init__(self, scale: float | None = None) -> None:
        if scale is not None and scale < 1.0:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.scale = scale

    def sample(
        self,
        problem: FailureProblem,
        seed: np.random.SeedSequence,
        budget: int,
    ) -> RareEventSample:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        rng = np.random.default_rng(seed)
        d = problem.dims
        if self.scale is not None:
            proposal = GaussianMixture.centered(d, self.scale)
            z = proposal.sample(rng, budget)
            margins = problem.margins(z)
            sample = RareEventSample(
                weights=balance_heuristic_weights([(proposal, z)]),
                fails=fails_from_margins(margins, problem.mechanisms),
                n_drawn=budget,
                n_solved=budget,
                info={"scale": self.scale},
            )
            _record_telemetry(sample, self.name)
            return sample
        n_pilot = _pilot_size(budget)
        explore = GaussianMixture.centered(d, _EXPLORE_SCALE)
        z_pilot = explore.sample(rng, n_pilot)
        pilot_margins = problem.margins(z_pilot)
        pilot_fails = fails_from_margins(pilot_margins, problem.mechanisms)
        w_pilot = np.exp(
            standard_normal_logpdf(z_pilot) - explore.logpdf(z_pilot)
        )
        p_hat = float(np.mean(w_pilot * pilot_fails["any"]))
        scale = (
            tuned_scale(p_hat, d) if p_hat > 0.0 else _EXPLORE_SCALE
        )
        n_main = budget - n_pilot
        stages = [(explore, z_pilot)]
        margin_parts = [pilot_margins]
        if n_main > 0:
            main = GaussianMixture.centered(d, scale)
            z_main = main.sample(rng, n_main)
            margin_parts.append(problem.margins(z_main))
            stages.append((main, z_main))
        pooled = _pool_margins(margin_parts, problem.mechanisms)
        sample = RareEventSample(
            weights=per_stage_weights(stages),
            fails=fails_from_margins(pooled, problem.mechanisms),
            n_drawn=budget,
            n_solved=budget,
            info={"tuned_scale": scale, "pilot_p_any": p_hat},
        )
        _record_telemetry(sample, self.name)
        return sample


class AdaptiveIsSampler:
    """MPFP-seeded mean-shift IS with a cross-entropy pilot update.

    Stage 1 (pilot) draws from the exploration inflation and solves.
    Per-mechanism shift vectors are then assembled: the cross-entropy
    update ``mu_k = sum(W z 1{fail_k}) / sum(W 1{fail_k})`` over the
    pilot (W = likelihood ratio to nominal) where the pilot saw
    failures, else the problem's MPFP seed for that mechanism.  Stage 2
    (main) draws from a defensive mixture — one unit-scale component
    per shift plus a broad zero-mean component whose inflation is tuned
    to the pilot's union estimate — and both stages are pooled with
    per-stage weights: the mixture is a fixed function of the pilot, so
    conditional unbiasedness holds stage by stage, and the pilot rows
    double as ballast against the occasional heavy main-stage weight.
    The defensive component bounds every main-stage weight, so the ESS
    cannot collapse even when a shift is off-target.
    """

    name = "adaptive-is"

    def __init__(
        self,
        explore_scale: float | None = _EXPLORE_SCALE,
        defensive_alpha: float = 0.3,
        min_component_norm: float = 0.3,
        min_hits: int = 3,
    ) -> None:
        self.explore_scale = (
            explore_scale if explore_scale is not None else _EXPLORE_SCALE
        )
        if not 0.0 < defensive_alpha < 1.0:
            raise ValueError("defensive_alpha must be in (0, 1)")
        self.defensive_alpha = defensive_alpha
        self.min_component_norm = min_component_norm
        self.min_hits = min_hits

    def _shift_components(
        self,
        problem: FailureProblem,
        z_pilot: np.ndarray,
        pilot_fails: dict[str, np.ndarray],
        w_pilot: np.ndarray,
    ) -> list[np.ndarray]:
        """One shift vector per mechanism: cross-entropy, else MPFP."""
        seeds = problem.direction_seeds()
        components: list[np.ndarray] = []
        for mechanism in problem.mechanisms:
            fail = pilot_fails[mechanism]
            mu = None
            if int(fail.sum()) >= self.min_hits:
                mass = float(np.sum(w_pilot[fail]))
                if mass > 0.0:
                    mu = (
                        np.sum(w_pilot[fail, None] * z_pilot[fail], axis=0)
                        / mass
                    )
            if mu is None:
                seed_z = seeds.get(mechanism)
                if seed_z is not None:
                    mu = np.asarray(seed_z, dtype=float)
            if mu is None or not np.all(np.isfinite(mu)):
                continue
            if float(np.linalg.norm(mu)) < self.min_component_norm:
                continue
            components.append(mu)
        return components

    def sample(
        self,
        problem: FailureProblem,
        seed: np.random.SeedSequence,
        budget: int,
    ) -> RareEventSample:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        rng = np.random.default_rng(seed)
        d = problem.dims
        n_pilot = _pilot_size(budget)
        explore = GaussianMixture.centered(d, self.explore_scale)
        z_pilot = explore.sample(rng, n_pilot)
        pilot_margins = problem.margins(z_pilot)
        pilot_fails = fails_from_margins(pilot_margins, problem.mechanisms)
        w_pilot = np.exp(
            standard_normal_logpdf(z_pilot) - explore.logpdf(z_pilot)
        )
        p_hat = float(np.mean(w_pilot * pilot_fails["any"]))
        defensive_scale = (
            tuned_scale(p_hat, d) if p_hat > 0.0 else self.explore_scale
        )
        components = self._shift_components(
            problem, z_pilot, pilot_fails, w_pilot
        )
        n_main = budget - n_pilot
        stages = [(explore, z_pilot)]
        margin_parts = [pilot_margins]
        if n_main > 0:
            if components:
                k = len(components)
                shared = (1.0 - self.defensive_alpha) / k
                mixture = GaussianMixture(
                    means=np.vstack([np.zeros(d)] + components),
                    scales=np.array([defensive_scale] + [1.0] * k),
                    alphas=np.array(
                        [self.defensive_alpha] + [shared] * k
                    ),
                )
            else:
                # No failure information at all: stay exploratory.
                mixture = GaussianMixture.centered(d, defensive_scale)
            z_main = mixture.sample(rng, n_main)
            margin_parts.append(problem.margins(z_main))
            stages.append((mixture, z_main))
        pooled = _pool_margins(margin_parts, problem.mechanisms)
        sample = RareEventSample(
            weights=per_stage_weights(stages),
            fails=fails_from_margins(pooled, problem.mechanisms),
            n_drawn=budget,
            n_solved=budget,
            info={
                "defensive_scale": defensive_scale,
                "shift_components": float(len(components)),
                "pilot_p_any": p_hat,
            },
        )
        _record_telemetry(sample, self.name)
        return sample


class BlockadeSampler:
    """Statistical blockade: classify cheap, solve only the tail.

    A linear margin model per mechanism (least squares on the solved
    pilot) predicts each main-stage draw's margins; only *candidates* —
    draws whose predicted margin for any mechanism falls below
    ``gamma`` residual standard deviations — are solved.  Blocked draws
    are scored as passing with their weight retained, so the estimate
    stays on the same weight normalisation; the conservative threshold
    makes the unaccounted mass ``E[w * 1{fail and blocked}]``
    negligible against the estimator's own standard error (the margin
    surfaces are near-linear over the sampled region, so a true failure
    more than ``gamma`` sigmas above its predicted margin is vanishingly
    rare).  Because draws are nearly free, the main stage oversamples
    by the predicted blocking rate: the *solver* budget, not the draw
    count, is what ``budget`` caps.
    """

    name = "blockade"

    def __init__(
        self,
        scale: float | None = None,
        gamma: float = 3.0,
        max_expansion: float = 20.0,
    ) -> None:
        if scale is not None and scale < 1.0:
            raise ValueError(f"scale must be >= 1, got {scale}")
        if gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        self.scale = scale
        self.gamma = gamma
        self.max_expansion = max_expansion

    def sample(
        self,
        problem: FailureProblem,
        seed: np.random.SeedSequence,
        budget: int,
    ) -> RareEventSample:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        rng = np.random.default_rng(seed)
        d = problem.dims
        scale = self.scale if self.scale is not None else _EXPLORE_SCALE
        proposal = GaussianMixture.centered(d, scale)
        n_pilot = _pilot_size(budget)
        z_pilot = proposal.sample(rng, n_pilot)
        pilot_margins = problem.margins(z_pilot)
        solve_budget = budget - n_pilot
        if solve_budget <= 0 or n_pilot <= d + 2:
            sample = RareEventSample(
                weights=balance_heuristic_weights([(proposal, z_pilot)]),
                fails=fails_from_margins(
                    pilot_margins, problem.mechanisms
                ),
                n_drawn=n_pilot,
                n_solved=n_pilot,
                info={"blockade_solve_fraction": 1.0},
            )
            _record_telemetry(sample, self.name)
            return sample
        # Linear margin models on the pilot: margin ~ c + b . z.
        design = np.hstack([np.ones((n_pilot, 1)), z_pilot])
        models: dict[str, tuple[np.ndarray, float]] = {}
        for mechanism in problem.mechanisms:
            y = pilot_margins[mechanism]
            finite = np.isfinite(y)
            y_fit = np.where(finite, y, np.nanmax(np.where(finite, y, np.nan)))
            coef, *_ = np.linalg.lstsq(design, y_fit, rcond=None)
            residual = y_fit - design @ coef
            spread = float(np.std(y_fit))
            sigma_r = max(float(np.std(residual)), 0.05 * spread, 1e-12)
            models[mechanism] = (coef, sigma_r)

        def candidates(z: np.ndarray) -> np.ndarray:
            mask = np.zeros(z.shape[0], dtype=bool)
            block_design = np.hstack([np.ones((z.shape[0], 1)), z])
            for coef, sigma_r in models.values():
                mask |= (block_design @ coef) < self.gamma * sigma_r
            return mask

        pilot_rate = float(np.mean(candidates(z_pilot)))
        expansion = min(1.0 / max(pilot_rate, 0.05), self.max_expansion)
        n_draw = int(np.ceil(solve_budget * expansion))
        z_main = proposal.sample(rng, n_draw)
        mask = candidates(z_main)
        solved = int(mask.sum())
        main_margins = {
            # Blocked samples score a safely positive margin (pass).
            name: np.full(n_draw, 1.0)
            for name in problem.mechanisms
        }
        if solved:
            solved_margins = problem.margins(z_main[mask])
            for name in problem.mechanisms:
                main_margins[name][mask] = solved_margins[name]
        pooled = _pool_margins(
            [pilot_margins, main_margins], problem.mechanisms
        )
        stages = [(proposal, z_pilot), (proposal, z_main)]
        n_drawn = n_pilot + n_draw
        sample = RareEventSample(
            weights=balance_heuristic_weights(stages),
            fails=fails_from_margins(pooled, problem.mechanisms),
            n_drawn=n_drawn,
            n_solved=n_pilot + solved,
            info={
                "blockade_solve_fraction": (n_pilot + solved) / n_drawn,
                "blockade_gamma": self.gamma,
                "scale": scale,
            },
        )
        _record_telemetry(sample, self.name)
        return sample


def make_sampler(name: str, scale: float | None = None):
    """Instantiate the strategy behind a ``sampler=`` knob value.

    ``scale`` carries the knob's inflation setting: the fixed proposal
    width for ``scaled``/``blockade`` (None = auto-tune / default), the
    exploration width for ``adaptive-is``, and is ignored by ``plain``.
    """
    if name == "plain":
        return PlainSampler()
    if name == "scaled":
        return ScaledSampler(scale)
    if name == "adaptive-is":
        return AdaptiveIsSampler(explore_scale=scale)
    if name == "blockade":
        return BlockadeSampler(scale=scale)
    raise ValueError(
        f"unknown sampler {name!r}; known: {', '.join(SAMPLER_NAMES)}"
    )
