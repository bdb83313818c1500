"""Statistical machinery: Monte Carlo, importance sampling, CLT, yield.

Everything here is deliberately generic — the failure analyzer and the
leakage-spread experiments are thin users of these primitives:

* :mod:`repro.stats.montecarlo` — seeded, batched Monte-Carlo driving;
* :mod:`repro.stats.sampling` — sigma-scaled Gaussian importance
  sampling for rare failure events;
* :mod:`repro.stats.rare_event` — adaptive rare-event strategies
  (pilot-tuned scaling, MPFP-seeded mean-shift IS, statistical
  blockade) behind the analyzer's ``sampler=`` knob;
* :mod:`repro.stats.distributions` — lognormal cell-leakage fits and the
  central-limit aggregation to array leakage (paper Eq. 2);
* :mod:`repro.stats.integration` — expectations over the inter-die
  distribution: the dense trapezoid the yields use, and Gauss-Hermite
  quadrature for smooth integrands;
* :mod:`repro.stats.yield_model` — the one implementation of leakage
  yield (paper Eqs. 3-4) and of parametric yield (paper Eq. 1, with the
  cell -> column -> memory redundancy chain), both integrated on the
  dense grid; :mod:`repro.failures` re-exports the Eq. 1 half.
"""

from repro.stats.distributions import (
    array_leakage_distribution,
    lognormal_fit,
    normal_cdf,
)
from repro.stats.integration import expect_over_corners
from repro.stats.montecarlo import (
    MonteCarloResult,
    probability_of,
    weighted_quantile,
)
from repro.stats.qmc import sobol_cell_dvt
from repro.stats.rare_event import (
    SAMPLER_NAMES,
    AdaptiveIsSampler,
    BlockadeSampler,
    GaussianMixture,
    PlainSampler,
    RareEventSample,
    ScaledSampler,
    balance_heuristic_weights,
    make_sampler,
    per_stage_weights,
    tuned_scale,
)
from repro.stats.sampling import ImportanceSample, importance_sample_dvt
from repro.stats.yield_model import leakage_yield

__all__ = [
    "probability_of",
    "MonteCarloResult",
    "weighted_quantile",
    "sobol_cell_dvt",
    "ImportanceSample",
    "importance_sample_dvt",
    "SAMPLER_NAMES",
    "AdaptiveIsSampler",
    "BlockadeSampler",
    "GaussianMixture",
    "PlainSampler",
    "RareEventSample",
    "ScaledSampler",
    "balance_heuristic_weights",
    "make_sampler",
    "per_stage_weights",
    "tuned_scale",
    "lognormal_fit",
    "normal_cdf",
    "array_leakage_distribution",
    "expect_over_corners",
    "leakage_yield",
]
