"""Leakage distributions: lognormal cells, Gaussian arrays (paper Eq. 2).

With Vt Gaussian and subthreshold leakage exponential in -Vt, each cell's
leakage is (to first order) lognormal.  The leakage of a memory is the
sum of many independent cell leakages, so by the central limit theorem it
is Gaussian with

    mu_MEM = N * mu_cell          sigma_MEM = sqrt(N) * sigma_cell

— the paper's Eq. 2, and the reason an *array* leakage monitor can
resolve the inter-die corner even though individual cell distributions
from different corners overlap heavily (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, ndtr


def normal_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF (the paper's Phi)."""
    return ndtr(x)


def binomial_sf(k: int, n: int, p: float) -> float:
    """P(X > k), X ~ Binomial(n, p): ``scipy.stats.binom.sf`` exactly."""
    if not 0.0 <= p <= 1.0:
        return float("nan")
    return 1.0 if k < 0 else 0.0 if k >= n else float(betainc(k + 1, n - k, p))


@dataclass(frozen=True)
class LognormalFit:
    """Maximum-likelihood lognormal fit of positive samples.

    Attributes:
        mu: mean of log(x).
        sigma: standard deviation of log(x).
    """

    mu: float
    sigma: float

    @property
    def mean(self) -> float:
        """Mean of the fitted lognormal."""
        return float(np.exp(self.mu + 0.5 * self.sigma**2))

    @property
    def std(self) -> float:
        """Standard deviation of the fitted lognormal."""
        variance = (np.exp(self.sigma**2) - 1.0) * np.exp(
            2.0 * self.mu + self.sigma**2
        )
        return float(np.sqrt(variance))


def lognormal_fit(samples: np.ndarray) -> LognormalFit:
    """Fit a lognormal to positive ``samples`` by log-moment matching."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot fit an empty sample")
    if np.any(samples <= 0):
        raise ValueError("lognormal fit requires strictly positive samples")
    logs = np.log(samples)
    return LognormalFit(mu=float(np.mean(logs)), sigma=float(np.std(logs)))


@dataclass(frozen=True)
class NormalDistribution:
    """A Gaussian summary (mean, std)."""

    mean: float
    std: float

    def cdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """P(X <= x)."""
        if self.std == 0:
            return np.where(np.asarray(x, dtype=float) >= self.mean, 1.0, 0.0)
        return normal_cdf((np.asarray(x, dtype=float) - self.mean) / self.std)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` values."""
        return rng.normal(self.mean, self.std, size=size)


def array_leakage_distribution(
    cell_leakage_samples: np.ndarray, n_cells: int
) -> NormalDistribution:
    """CLT Gaussian for the total leakage of an ``n_cells`` array.

    ``cell_leakage_samples`` is a Monte-Carlo sample of single-cell
    leakages at the corner of interest; the array total is Gaussian with
    mean ``N * mean_cell`` and std ``sqrt(N) * std_cell`` (paper Eq. 2).
    """
    if n_cells <= 0:
        raise ValueError("n_cells must be positive")
    samples = np.asarray(cell_leakage_samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two cell samples")
    return NormalDistribution(
        mean=n_cells * float(np.mean(samples)),
        std=float(np.sqrt(n_cells)) * float(np.std(samples, ddof=1)),
    )
