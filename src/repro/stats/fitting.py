"""Model fitting and selection across the paper's candidate distributions.

The paper compares normal, uniform, Poisson and negative-binomial fits
for hourly create/drop counts (§4.1.3) and normal vs. uniform for the
rapid-growth magnitudes (§4.2.3). We rank candidates with AIC (lower is
better); the paper ultimately chose normal "because its simulation
results were most representative of our training dataset", and the
AIC ranking reproduces that choice on the synthetic traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Type

from repro.errors import TrainingError
from repro.stats.distributions import (
    FittedDistribution,
    NegativeBinomialDistribution,
    NormalDistribution,
    PoissonDistribution,
    UniformDistribution,
)

DEFAULT_CANDIDATES: Tuple[Type[FittedDistribution], ...] = (
    NormalDistribution,
    UniformDistribution,
    PoissonDistribution,
    NegativeBinomialDistribution,
)


@dataclass(frozen=True)
class FitResult:
    """One candidate's fit on a sample."""

    distribution: FittedDistribution
    log_likelihood: float
    aic: float

    @property
    def name(self) -> str:
        return self.distribution.name


def fit_all_candidates(
    sample: Sequence[float],
    candidates: Sequence[Type[FittedDistribution]] = DEFAULT_CANDIDATES,
) -> List[FitResult]:
    """Fit each candidate and return results sorted by AIC (best first).

    Candidates whose support cannot hold the sample (e.g. Poisson on
    negative deltas) are skipped rather than raising.
    """
    results: List[FitResult] = []
    for candidate in candidates:
        try:
            fitted = candidate.fit(sample)
            ll = fitted.log_likelihood(sample)
        except TrainingError:
            continue
        if ll == float("-inf"):
            continue
        aic = 2.0 * fitted.n_parameters - 2.0 * ll
        results.append(FitResult(distribution=fitted, log_likelihood=ll,
                                 aic=aic))
    if not results:
        raise TrainingError("no candidate distribution fits the sample")
    results.sort(key=lambda r: r.aic)
    return results


def fit_best(
    sample: Sequence[float],
    candidates: Sequence[Type[FittedDistribution]] = DEFAULT_CANDIDATES,
) -> FittedDistribution:
    """Return the AIC-best fitted distribution for ``sample``."""
    return fit_all_candidates(sample, candidates)[0].distribution
