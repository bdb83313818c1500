"""Tests for the statistics package."""

import numpy as np
import pytest

from repro.stats.distributions import (
    NormalDistribution,
    array_leakage_distribution,
    lognormal_fit,
    normal_cdf,
)
from repro.stats.integration import dense_expectation, expect_over_corners
from repro.stats.montecarlo import (
    MonteCarloResult,
    probability_of,
    weighted_quantile,
)
from repro.stats.yield_model import leakage_yield, parametric_yield
from repro.technology.variation import InterDieDistribution


class TestProbabilityOf:
    def test_unweighted_estimate(self):
        indicator = np.array([True] * 25 + [False] * 75)
        result = probability_of(indicator)
        assert result.estimate == pytest.approx(0.25)
        assert result.stderr == pytest.approx(
            np.sqrt(0.25 * 0.75 / 100)
        )

    def test_weighted_estimate(self):
        indicator = np.array([True, False, True, False])
        weights = np.array([2.0, 1.0, 0.5, 0.5])
        result = probability_of(indicator, weights)
        assert result.estimate == pytest.approx(2.5 / 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            probability_of(np.array([], dtype=bool))

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            probability_of(np.array([True, False]), np.array([1.0]))

    def test_within_helper(self):
        a = MonteCarloResult(0.10, 0.01, 100)
        b = MonteCarloResult(0.12, 0.01, 100)
        assert a.within(b, n_sigma=3.0)
        c = MonteCarloResult(0.50, 0.01, 100)
        assert not a.within(c, n_sigma=3.0)

    def test_relative_error(self):
        assert MonteCarloResult(0.0, 0.1, 10).relative_error == float("inf")
        assert MonteCarloResult(0.5, 0.05, 10).relative_error == pytest.approx(0.1)


class TestWeightedQuantile:
    def test_uniform_weights_match_plain_quantile(self, rng):
        values = rng.normal(size=20_001)
        weights = np.ones_like(values)
        for q in (0.1, 0.5, 0.9):
            assert weighted_quantile(values, weights, q) == pytest.approx(
                np.quantile(values, q), abs=0.02
            )

    def test_importance_weights_recover_target_quantile(self, rng):
        """Samples from N(0,2) weighted back to N(0,1) quantiles."""
        scale = 2.0
        x = rng.normal(0.0, scale, size=400_000)
        log_w = np.log(scale) - 0.5 * x * x * (1.0 - 1.0 / scale**2)
        w = np.exp(log_w)
        from scipy.stats import norm

        for q in (0.001, 0.01, 0.5):
            assert weighted_quantile(x, w, q) == pytest.approx(
                norm.ppf(q), abs=0.03
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0]), np.array([1.0]), 1.5)
        with pytest.raises(ValueError):
            weighted_quantile(np.array([]), np.array([]), 0.5)
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0, 2.0]), np.array([1.0]), 0.5)

    def test_zero_total_weight_rejected(self):
        # An all-zero weight batch (every importance sample missed the
        # target region) carries no distributional information — it
        # must raise, not silently divide by zero.
        values = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive total weight"):
            weighted_quantile(values, np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="positive total weight"):
            weighted_quantile(values, np.array([1.0, -1.0, 0.0]), 0.5)
        with pytest.raises(ValueError, match="positive total weight"):
            weighted_quantile(values, np.array([np.nan, 1.0, 1.0]), 0.5)

    def test_single_sample(self):
        # Any quantile of one weighted sample is that sample.
        for q in (0.01, 0.5, 0.99):
            assert weighted_quantile(
                np.array([4.2]), np.array([0.3]), q
            ) == 4.2


class TestFromBinomial:
    def test_zero_trials_is_uninformative(self):
        result = MonteCarloResult.from_binomial(0, 0)
        assert result.estimate == 0.0
        assert result.stderr == float("inf")
        assert result.ess == 0.0
        assert (result.ci_low, result.ci_high) == (0.0, 1.0)

    def test_all_failures(self):
        result = MonteCarloResult.from_binomial(50, 50)
        assert result.estimate == 1.0
        assert result.stderr == 0.0
        # The Wilson interval stays strictly inside [0, 1) below and
        # pins the upper bound — 50/50 is still not proof of p = 1.
        assert 0.9 < result.ci_low < 1.0
        assert result.ci_high == pytest.approx(1.0)

    def test_single_sample(self):
        result = MonteCarloResult.from_binomial(1, 1)
        assert result.estimate == 1.0
        assert result.ess == 1.0
        assert result.max_weight_fraction == 1.0
        # One observation leaves the interval nearly uninformative.
        assert result.ci_low < 0.6
        assert result.ci_high == pytest.approx(1.0)

    def test_matches_unweighted_probability_of(self):
        indicator = np.array([True] * 7 + [False] * 93)
        via_counts = MonteCarloResult.from_binomial(7, 100)
        via_samples = probability_of(indicator)
        assert via_counts.estimate == via_samples.estimate
        assert via_counts.stderr == via_samples.stderr
        assert via_counts.ci_low == via_samples.ci_low
        assert via_counts.ci_high == via_samples.ci_high

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloResult.from_binomial(0, -1)


class TestDistributions:
    def test_lognormal_fit_roundtrip(self, rng):
        samples = rng.lognormal(mean=-18.0, sigma=0.8, size=100_000)
        fit = lognormal_fit(samples)
        assert fit.mu == pytest.approx(-18.0, abs=0.02)
        assert fit.sigma == pytest.approx(0.8, rel=0.02)
        assert fit.mean == pytest.approx(np.mean(samples), rel=0.05)
        assert fit.std == pytest.approx(np.std(samples), rel=0.10)

    def test_lognormal_fit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lognormal_fit(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            lognormal_fit(np.array([]))

    def test_array_distribution_clt_scaling(self, rng):
        cells = rng.lognormal(-18.0, 0.8, size=50_000)
        n = 1024
        dist = array_leakage_distribution(cells, n)
        assert dist.mean == pytest.approx(n * cells.mean(), rel=1e-9)
        assert dist.std == pytest.approx(
            np.sqrt(n) * cells.std(ddof=1), rel=1e-9
        )

    def test_array_distribution_matches_explicit_sums(self, rng):
        """The CLT Gaussian agrees with brute-force array sums."""
        cells = rng.lognormal(-18.0, 0.8, size=200_000)
        n = 2000
        dist = array_leakage_distribution(cells[:50_000], n)
        sums = cells[: (200_000 // n) * n].reshape(-1, n).sum(axis=1)
        assert sums.mean() == pytest.approx(dist.mean, rel=0.02)
        assert sums.std() == pytest.approx(dist.std, rel=0.25)

    def test_normal_distribution_cdf(self):
        dist = NormalDistribution(1.0, 0.5)
        assert dist.cdf(1.0) == pytest.approx(0.5)
        assert dist.cdf(2.0) == pytest.approx(float(normal_cdf(2.0)))

    def test_zero_std_cdf_is_step(self):
        dist = NormalDistribution(1.0, 0.0)
        assert float(dist.cdf(0.5)) == 0.0
        assert float(dist.cdf(1.5)) == 1.0


class TestIntegration:
    def test_expectation_of_polynomial(self):
        dist = InterDieDistribution(sigma=0.05)
        value = expect_over_corners(
            dist, lambda c: c.dvt_inter**2, order=15
        )
        assert value == pytest.approx(0.05**2, rel=1e-8)

    def test_zero_sigma_shortcut(self):
        dist = InterDieDistribution(sigma=0.0, mean=0.02)
        value = expect_over_corners(dist, lambda c: c.dvt_inter * 10)
        assert value == pytest.approx(0.2)

    def test_dense_matches_quadrature_on_smooth_function(self):
        dist = InterDieDistribution(sigma=0.04)
        f = lambda c: np.exp(-((c.dvt_inter / 0.05) ** 2))
        smooth = expect_over_corners(dist, f, order=31)
        dense = dense_expectation(dist, f, n_points=161)
        assert dense == pytest.approx(smooth, rel=1e-3)

    def test_dense_handles_step_function_better(self):
        """A step policy: dense integration nails the mass split."""
        dist = InterDieDistribution(sigma=0.05)
        step = lambda c: 1.0 if c.dvt_inter > 0 else 0.0
        dense = dense_expectation(dist, step, n_points=401)
        assert dense == pytest.approx(0.5, abs=0.01)


class TestYieldModel:
    def test_leakage_yield_with_constant_distribution(self):
        from repro.stats.distributions import NormalDistribution

        dist = InterDieDistribution(sigma=0.03)
        array_leakage = lambda c: NormalDistribution(
            1e-3 * np.exp(-c.dvt_inter / 0.05), 1e-5
        )
        y_loose = leakage_yield(dist, array_leakage, l_max=1e-1)
        y_tight = leakage_yield(dist, array_leakage, l_max=1e-3)
        assert y_loose == pytest.approx(1.0, abs=1e-6)
        assert 0.3 < y_tight < 0.7

    def test_leakage_yield_rejects_nonpositive_bound(self):
        dist = InterDieDistribution(sigma=0.03)
        with pytest.raises(ValueError):
            leakage_yield(dist, lambda c: None, l_max=0.0)

    def test_parametric_yield_passthrough(self):
        from repro.sram.array import ArrayOrganization

        # One cell, no spare: the memory fails exactly when the cell does.
        single = ArrayOrganization(rows=1, columns=1, redundant_columns=0)
        dist = InterDieDistribution(sigma=0.05)
        yield_value = parametric_yield(lambda c: 0.25, single, dist)
        assert yield_value == pytest.approx(0.75)


class TestImportanceSamplingHealth:
    def test_tail_matched_proposal_keeps_ess_floor(self, tech, geometry):
        # The tail-matched proposal (scale ~1.37 at the ~4e-4 union
        # failure depth of the 6-dimensional cell) keeps the Kish ESS
        # fraction near 0.48; the historical sigma-2 proposal sat near
        # 0.08.  The 0.3 floor catches any proposal change that
        # degrades estimator quality even when it is faster.
        from repro import observability
        from repro.stats.rare_event import tuned_scale
        from repro.stats.sampling import importance_sample_dvt

        observability.reset()
        observability.enable()
        try:
            sample = importance_sample_dvt(
                tech, geometry, np.random.default_rng(7), 20_000,
                tuned_scale(4e-4, 6),
            )
            metrics = observability.snapshot()["metrics"]
        finally:
            observability.disable()
            observability.reset()
        assert sample.n_samples == 20_000
        assert metrics["counters"]["sampling.draws"] > 0
        assert metrics["histograms"]["sampling.ess_fraction"]["min"] >= 0.3
