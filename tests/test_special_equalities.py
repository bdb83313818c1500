"""The library's ``scipy.special`` calls equal their ``scipy.stats`` forms.

The library evaluates the normal CDF, its inverse tail, the binomial
survival function and the Beta quantile through the ``scipy.special``
ufuncs that ``scipy.stats`` itself calls, so that no run pays for
importing ``scipy.stats``.  Every published number is meant to stay
bit-identical, so each replacement is pinned here against its
``scipy.stats`` counterpart: value *and* sign bit, on random grids and
at the edges.  If a future scipy routes ``scipy.stats`` through
different code, these fail first.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.observability.diagnostics import clopper_pearson_interval
from repro.sram.array import ArrayOrganization
from repro.sram.ecc import word_failure_probability
from repro.stats.distributions import binomial_sf, normal_cdf
from repro.stats.rare_event import tuned_scale
from repro.stats.yield_model import (
    column_failure_probability,
    memory_failure_probability,
)


def assert_bits_equal(actual, expected) -> None:
    """Equal as IEEE doubles: same bits, so -0.0 != 0.0 and nan == nan."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    differ = actual.view(np.int64) != expected.view(np.int64)
    # nan payloads may differ; any nan matches any nan.
    differ &= ~(np.isnan(actual) & np.isnan(expected))
    assert not differ.any(), (actual[differ][:5], expected[differ][:5])


EDGES = np.array([np.inf, -np.inf, np.nan, 40.0, -40.0, 0.0, -0.0, 1e-300])


class TestNormal:
    def test_normal_cdf_array(self):
        x = np.concatenate([np.random.default_rng(1).normal(0, 6, 20_000), EDGES])
        result = normal_cdf(x)
        assert isinstance(result, np.ndarray)
        assert_bits_equal(result, stats.norm.cdf(x))

    @pytest.mark.parametrize("x", EDGES.tolist() + [1.5, -7.25])
    def test_normal_cdf_scalar(self, x):
        result, expected = normal_cdf(x), stats.norm.cdf(x)
        assert type(result) is type(expected)
        assert_bits_equal(result, expected)

    def test_mpfp_tail_probability(self):
        """``MpfpEstimator`` reports ``P = normal_cdf(-beta)``."""
        beta = np.concatenate(
            [np.random.default_rng(2).normal(0, 6, 20_000), EDGES]
        )
        assert_bits_equal(normal_cdf(-beta), stats.norm.sf(beta))

    def test_mpfp_result(self):
        from repro.experiments.context import ExperimentContext
        from repro.failures.mpfp import MpfpEstimator

        ctx = ExperimentContext(
            target=1e-2, calibration_samples=2_000, analysis_samples=500,
            seed=99,
        )
        result = MpfpEstimator(
            ctx.tech, ctx.criteria, ctx.geometry, ctx.conditions
        ).find_mpfp("read")
        assert_bits_equal(result.probability, float(stats.norm.sf(result.beta)))

    def test_tuned_scale_across_its_clip_range(self):
        """Old form: ``clip(norm.isf(p) / sqrt(dims), 1.05, 3.0)``."""
        rng = np.random.default_rng(3)
        targets = np.concatenate(
            [10 ** rng.uniform(-16, 0, 4_000), [0.0, 1e-12, 0.25, 0.5, 0.7, 1.0]]
        )
        for dims in (1, 2, 6, 12, 40):
            for p in targets:
                clipped = float(np.clip(p, 1e-12, 0.5))
                beta = float(stats.norm.isf(clipped))
                expected = float(np.clip(beta / np.sqrt(dims), 1.05, 3.0))
                assert_bits_equal(tuned_scale(float(p), dims), expected)
        # The clip is exercised on both sides.
        assert tuned_scale(0.5, 6) == 1.05
        assert tuned_scale(1e-12, 1) == 3.0


class TestBinomial:
    def test_binomial_sf_random_grid(self):
        rng = np.random.default_rng(4)
        n = rng.integers(0, 3_000, 20_000)
        k = rng.integers(-3, 3_003, 20_000)
        p = 10 ** rng.uniform(-18, 0, 20_000)
        p[:200] = rng.choice([0.0, 1.0, 1e-12, np.nan, -0.5, 1.5], 200)
        actual = [binomial_sf(int(a), int(b), float(c)) for a, b, c in zip(k, n, p)]
        assert_bits_equal(actual, stats.binom.sf(k, n, p))

    @pytest.mark.parametrize("p_cell", [0.0, 1.0, 1e-12, 3e-5])
    @pytest.mark.parametrize(
        "rows, columns, redundant",
        [(64, 256, 13), (256, 64, 0), (8, 16, 16), (8, 16, 40), (1, 1, 0)],
    )
    def test_memory_failure_probability(self, p_cell, rows, columns, redundant):
        organization = ArrayOrganization(rows, columns, redundant)
        p_col = float(column_failure_probability(p_cell, rows))
        assert_bits_equal(
            memory_failure_probability(p_cell, organization),
            float(stats.binom.sf(redundant, columns, p_col)),
        )

    @pytest.mark.parametrize("p_cell", [0.0, 1.0, 1e-12, 2e-4, -1.0, 2.0])
    @pytest.mark.parametrize("word_bits", [1, 2, 72])
    def test_ecc_word_failure(self, p_cell, word_bits):
        clipped = min(max(p_cell, 0.0), 1.0)
        assert_bits_equal(
            word_failure_probability(p_cell, word_bits),
            float(stats.binom.sf(1, word_bits, clipped)),
        )


class TestClopperPearson:
    @pytest.mark.parametrize("n", [1, 7, 60, 1_000])
    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.3])
    def test_matches_beta_quantiles(self, n, alpha):
        for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            low = 0.0 if k == 0 else float(stats.beta.ppf(alpha / 2, k, n - k + 1))
            high = (
                1.0 if k == n
                else float(stats.beta.ppf(1 - alpha / 2, k + 1, n - k))
            )
            assert_bits_equal(clopper_pearson_interval(k, n, alpha), (low, high))
