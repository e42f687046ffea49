"""Kolmogorov-Smirnov normality test (paper §4.1.3, Figure 7).

The paper runs a K-S test per hourly training set and cannot reject
normality at alpha = 0.05 for nearly every hour. Following the paper's
cited scipy implementation, we test the sample against a normal with
the sample's own mean and standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import TrainingError

ALPHA = 0.05


@dataclass(frozen=True)
class KsTestResult:
    """Outcome of a single K-S normality test."""

    statistic: float
    p_value: float
    sample_size: int

    def rejects_normality(self, alpha: float = ALPHA) -> bool:
        """True when the null hypothesis of normality is rejected."""
        return self.p_value < alpha


def ks_normality_test(sample: Sequence[float]) -> KsTestResult:
    """Test ``sample`` against N(sample mean, sample std).

    Degenerate samples (fewer than 3 points or zero variance) cannot be
    tested and raise :class:`TrainingError`.
    """
    data = np.asarray(sample, dtype=float)
    if data.size < 3:
        raise TrainingError(
            f"K-S test needs at least 3 observations, got {data.size}")
    sigma = float(data.std(ddof=1))
    if sigma == 0.0:
        raise TrainingError("K-S test undefined for zero-variance sample")
    from scipy import stats as sps  # lazy: simulation runs skip it

    statistic, p_value = sps.kstest(data, "norm",
                                    args=(float(data.mean()), sigma))
    return KsTestResult(statistic=float(statistic), p_value=float(p_value),
                        sample_size=int(data.size))
