"""Tests for the cell -> column -> memory yield chain."""

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sp_stats

from repro.failures import (
    column_failure_probability,
    memory_failure_probability,
    parametric_yield,
)
from repro.sram.array import ArrayOrganization
from repro.technology.variation import InterDieDistribution


class TestColumnProbability:
    def test_matches_direct_formula(self):
        p = column_failure_probability(1e-3, rows=256)
        assert p == pytest.approx(1.0 - (1.0 - 1e-3) ** 256, rel=1e-9)

    def test_stable_for_tiny_probabilities(self):
        p = column_failure_probability(1e-15, rows=256)
        assert p == pytest.approx(256e-15, rel=1e-6)

    def test_edge_cases(self):
        assert column_failure_probability(0.0, rows=64) == 0.0
        assert column_failure_probability(1.0, rows=64) == 1.0

    def test_vectorised(self):
        p = column_failure_probability(np.array([0.0, 1e-3, 1.0]), rows=16)
        assert p.shape == (3,)
        assert p[0] == 0.0 and p[2] == 1.0

    def test_invalid_rows(self):
        with pytest.raises(ValueError):
            column_failure_probability(1e-3, rows=0)


class TestMemoryProbability:
    def test_zero_cell_failure_means_zero(self):
        org = ArrayOrganization(rows=64, columns=256, redundant_columns=13)
        assert memory_failure_probability(0.0, org) == 0.0

    def test_certain_cell_failure_means_one(self):
        org = ArrayOrganization(rows=64, columns=256, redundant_columns=13)
        assert memory_failure_probability(1.0, org) == pytest.approx(1.0)

    def test_matches_binomial_survival(self):
        org = ArrayOrganization(rows=64, columns=100, redundant_columns=5)
        p_cell = 2e-4
        p_col = 1.0 - (1.0 - p_cell) ** 64
        expected = float(sp_stats.binom.sf(5, 100, p_col))
        assert memory_failure_probability(p_cell, org) == pytest.approx(
            expected, rel=1e-9
        )

    def test_matches_monte_carlo(self, rng):
        """Analytic memory failure equals brute-force column sampling."""
        org = ArrayOrganization(rows=16, columns=50, redundant_columns=2)
        p_cell = 5e-3
        p_col = 1.0 - (1.0 - p_cell) ** 16
        trials = 40_000
        faulty_columns = rng.binomial(org.columns, p_col, size=trials)
        empirical = np.mean(faulty_columns > org.redundant_columns)
        analytic = memory_failure_probability(p_cell, org)
        assert analytic == pytest.approx(empirical, abs=4 * np.sqrt(
            empirical * (1 - empirical) / trials
        ))

    def test_more_redundancy_helps(self):
        small = ArrayOrganization(rows=64, columns=256, redundant_columns=2)
        large = ArrayOrganization(rows=64, columns=256, redundant_columns=20)
        p_cell = 1e-4
        assert memory_failure_probability(p_cell, large) < \
            memory_failure_probability(p_cell, small)


class TestParametricYield:
    def test_flat_failure_rate(self):
        org = ArrayOrganization(rows=64, columns=100, redundant_columns=5)
        dist = InterDieDistribution(sigma=0.05)
        y = parametric_yield(lambda corner: 0.0, org, dist)
        assert y == pytest.approx(1.0)

    def test_bathtub_yield_decreases_with_sigma(self):
        """Wider inter-die spread puts more dies in the failing regions."""
        org = ArrayOrganization(rows=64, columns=100, redundant_columns=5)

        def p_cell(corner):
            return min(1.0, 1e-6 * np.exp(abs(corner.dvt_inter) / 0.01))

        y_narrow = parametric_yield(p_cell, org, InterDieDistribution(0.02))
        y_wide = parametric_yield(p_cell, org, InterDieDistribution(0.06))
        assert y_wide < y_narrow

    def test_kinked_bathtub_matches_adaptive_quadrature(self):
        """The bathtub has a kink at the nominal corner, which a
        15-node Gauss-Hermite rule misses by ~4 yield points (0.7831);
        the dense grid stays within 1e-3 of adaptive quadrature."""
        org = ArrayOrganization(rows=64, columns=100, redundant_columns=5)
        sigma = 0.06

        def p_cell(dvt):
            return min(1.0, 1e-6 * np.exp(abs(dvt) / 0.01))

        def integrand(dvt):
            p_memory = memory_failure_probability(p_cell(dvt), org)
            return sp_stats.norm.pdf(dvt, scale=sigma) * (1.0 - p_memory)

        reference = sum(
            integrate.quad(integrand, lo, hi, limit=200)[0]
            for lo, hi in ((-8 * sigma, 0.0), (0.0, 8 * sigma))
        )
        y = parametric_yield(
            lambda corner: p_cell(corner.dvt_inter), org,
            InterDieDistribution(sigma),
        )
        assert reference == pytest.approx(0.74051, abs=1e-4)
        assert y == pytest.approx(reference, abs=1e-3)


class TestArrayOrganization:
    def test_from_capacity(self):
        org = ArrayOrganization.from_capacity(64 * 1024, rows=256,
                                              redundancy_fraction=0.05)
        assert org.rows == 256
        assert org.columns == 2048
        assert org.redundant_columns == round(2048 * 0.05)
        assert org.capacity_bytes == 64 * 1024
        assert org.n_cells == 64 * 1024 * 8

    def test_from_capacity_requires_divisibility(self):
        with pytest.raises(ValueError):
            ArrayOrganization.from_capacity(1000, rows=256)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayOrganization(rows=0, columns=10, redundant_columns=1)
        with pytest.raises(ValueError):
            ArrayOrganization(rows=10, columns=10, redundant_columns=-1)

    def test_str_mentions_capacity(self):
        org = ArrayOrganization.from_capacity(2 * 1024, rows=64)
        assert "2KB" in str(org)
