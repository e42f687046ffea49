"""Candidate probability distributions for the behaviour models.

Paper §4.1.3: "we fitted the hourly training dataset via various
probability distributions including normal, uniform, Poisson and
negative binomial". Each wrapper exposes a uniform interface —
``fit``, ``sample``, ``log_likelihood`` — so the fitting module can
compare candidates, and sampling takes an explicit generator so every
draw is attributable to a seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import TrainingError


def _as_array(sample: Sequence[float]) -> np.ndarray:
    data = np.asarray(sample, dtype=float)
    if data.size == 0:
        raise TrainingError("cannot fit a distribution to an empty sample")
    return data


@dataclass(frozen=True)
class FittedDistribution:
    """Base class for a fitted distribution (frozen parameters)."""

    name: str = "base"

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        raise NotImplementedError

    def log_likelihood(self, sample: Sequence[float]) -> float:
        raise NotImplementedError

    @property
    def n_parameters(self) -> int:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class NormalDistribution(FittedDistribution):
    """Gaussian with MLE parameters; the paper's chosen building block."""

    mu: float = 0.0
    sigma: float = 1.0
    name: str = "normal"

    @classmethod
    def fit(cls, sample: Sequence[float]) -> "NormalDistribution":
        data = _as_array(sample)
        sigma = float(data.std())
        return cls(mu=float(data.mean()), sigma=sigma)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=size)

    def log_likelihood(self, sample: Sequence[float]) -> float:
        data = _as_array(sample)
        sigma = max(self.sigma, 1e-9)
        from scipy import stats as sps  # lazy: simulation runs skip it

        return float(np.sum(sps.norm.logpdf(data, loc=self.mu, scale=sigma)))

    @property
    def n_parameters(self) -> int:
        return 2

    def mean(self) -> float:
        return self.mu


@dataclass(frozen=True)
class UniformDistribution(FittedDistribution):
    """Uniform on [low, high]; used inside the rapid-growth bin models."""

    low: float = 0.0
    high: float = 1.0
    name: str = "uniform"

    @classmethod
    def fit(cls, sample: Sequence[float]) -> "UniformDistribution":
        data = _as_array(sample)
        low, high = float(data.min()), float(data.max())
        if low == high:  # widen degenerate support a hair
            high = low + 1e-9
        return cls(low=low, high=high)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)

    def log_likelihood(self, sample: Sequence[float]) -> float:
        data = _as_array(sample)
        width = self.high - self.low
        inside = (data >= self.low) & (data <= self.high)
        if not inside.all():
            return float("-inf")
        return float(-data.size * np.log(width))

    @property
    def n_parameters(self) -> int:
        return 2

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class PoissonDistribution(FittedDistribution):
    """Poisson over non-negative integer counts."""

    lam: float = 1.0
    name: str = "poisson"

    @classmethod
    def fit(cls, sample: Sequence[float]) -> "PoissonDistribution":
        data = _as_array(sample)
        if (data < 0).any():
            raise TrainingError("Poisson requires non-negative counts")
        return cls(lam=max(float(data.mean()), 1e-9))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.poisson(self.lam, size=size).astype(float)

    def log_likelihood(self, sample: Sequence[float]) -> float:
        data = np.round(_as_array(sample))
        if (data < 0).any():
            return float("-inf")
        from scipy import stats as sps

        return float(np.sum(sps.poisson.logpmf(data, mu=self.lam)))

    @property
    def n_parameters(self) -> int:
        return 1

    def mean(self) -> float:
        return self.lam


@dataclass(frozen=True)
class NegativeBinomialDistribution(FittedDistribution):
    """Negative binomial via method of moments (n successes, prob p)."""

    n: float = 1.0
    p: float = 0.5
    name: str = "negative-binomial"

    @classmethod
    def fit(cls, sample: Sequence[float]) -> "NegativeBinomialDistribution":
        data = _as_array(sample)
        if (data < 0).any():
            raise TrainingError("negative binomial requires non-negative counts")
        mean = float(data.mean())
        var = float(data.var())
        if var <= mean or mean <= 0:
            # No overdispersion: degenerate to a near-Poisson parameterization
            # with a large n, which the likelihood comparison will penalize.
            mean = max(mean, 1e-6)
            var = mean * 1.0001 + 1e-9
        p = mean / var
        n = mean * p / (1.0 - p)
        return cls(n=max(n, 1e-6), p=min(max(p, 1e-9), 1 - 1e-9))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.negative_binomial(self.n, self.p, size=size).astype(float)

    def log_likelihood(self, sample: Sequence[float]) -> float:
        data = np.round(_as_array(sample))
        if (data < 0).any():
            return float("-inf")
        from scipy import stats as sps

        return float(np.sum(sps.nbinom.logpmf(data, self.n, self.p)))

    @property
    def n_parameters(self) -> int:
        return 2

    def mean(self) -> float:
        return self.n * (1.0 - self.p) / self.p
