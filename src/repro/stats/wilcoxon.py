"""Wilcoxon signed-rank test (paper §5.3.4, Figure 13).

Used to compare paired node-level metric readings between repeated
experiments; the paper found 5 of 6 pairwise comparisons insignificant
at alpha = 0.05, supporting that PLB non-determinism does not move the
headline KPIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import TrainingError

ALPHA = 0.05


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of a paired Wilcoxon signed-rank test."""

    statistic: float
    p_value: float
    n_pairs: int

    def significant(self, alpha: float = ALPHA) -> bool:
        """True when the "same distribution" null is rejected."""
        return self.p_value < alpha


def wilcoxon_signed_rank(sample_a: Sequence[float],
                         sample_b: Sequence[float]) -> WilcoxonResult:
    """Paired Wilcoxon signed-rank test between two equal-length samples.

    All-zero difference vectors (identical runs) are reported as
    maximally insignificant (p = 1.0) instead of erroring, since that is
    the strongest possible "same distribution" evidence.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.shape != b.shape:
        raise TrainingError(
            f"paired test needs equal lengths: {a.shape} vs {b.shape}")
    if a.size < 5:
        raise TrainingError(
            f"Wilcoxon test needs at least 5 pairs, got {a.size}")
    differences = a - b
    if np.all(differences == 0):
        return WilcoxonResult(statistic=0.0, p_value=1.0, n_pairs=int(a.size))
    from scipy import stats as sps  # lazy: simulation runs skip it

    statistic, p_value = sps.wilcoxon(a, b, zero_method="wilcox")
    return WilcoxonResult(statistic=float(statistic), p_value=float(p_value),
                          n_pairs=int(a.size))
