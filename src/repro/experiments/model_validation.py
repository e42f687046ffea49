"""The §4 model validation: Figures 7, 8, 9 plus the model-selection
ablation behind §4.2.2.

* Figure 7 — K-S normality p-values per hourly training set;
* Figure 8 — the 100-run create/drop simulation vs the production
  trace (net creates, creates, drops);
* Figure 9 — the steady-state disk model's cumulative usage vs the
  production curve;
* ablation — hourly-normal vs KDE vs customized binning, scored with
  DTW / RMSE / cumulative-growth error.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.hourly_schedule import DayType
from repro.experiments.report import format_table
from repro.experiments.scenarios import trained_artifacts
from repro.models.baselines import (
    BinnedDeltaModel,
    HourlyNormalDeltaModel,
    KdeDeltaModel,
    ModelComparisonRow,
    compare_delta_models,
)
from repro.models.hourly import HourlyTrainingSets, ks_p_values
from repro.models.training import train_create_drop_model
from repro.models.validation import (
    CreateDropValidation,
    DiskValidation,
    validate_create_drop,
    validate_disk_model,
)
from repro.sqldb.editions import Edition
from repro.stats.descriptive import boxplot_stats


class ModelValidationStudy:
    """Reruns the §4 training + validation pipeline end to end."""

    def __init__(self, training_seed: int = 20210620,
                 validation_seed: int = 99) -> None:
        self.artifacts = trained_artifacts(training_seed=training_seed)
        self.validation_seed = validation_seed

    # ------------------------------------------------------------------
    # Figure 7 — K-S p-values
    # ------------------------------------------------------------------

    def figure7_pvalues(self) -> Dict[Tuple[Edition, str, str], List[float]]:
        """p-values per (edition, kind, daytype): 8 box plots x 24 hours."""
        result: Dict[Tuple[Edition, str, str], List[float]] = {}
        for edition in Edition:
            for kind in ("create", "drop"):
                trace = self.artifacts.event_traces[(edition, kind)]
                sets = HourlyTrainingSets.from_trace(trace)
                for daytype in DayType:
                    key = (edition, kind, daytype.value)
                    result[key] = ks_p_values(sets, daytype)
        return result

    def figure7_rejection_rate(self, alpha: float = 0.05) -> float:
        """Overall fraction of hourly sets rejecting normality.

        The paper could not reject normality for nearly every hour
        ("All the p-values (except a few...) were greater than 0.05").
        """
        all_p = [p for values in self.figure7_pvalues().values()
                 for p in values]
        if not all_p:
            return 0.0
        return float(np.mean([p < alpha for p in all_p]))

    # ------------------------------------------------------------------
    # Figure 8 — create/drop validation
    # ------------------------------------------------------------------

    def figure8_validation(self, edition: Edition = Edition.STANDARD_GP,
                           runs: int = 100) -> CreateDropValidation:
        create = self.artifacts.event_traces[(edition, "create")]
        drop = self.artifacts.event_traces[(edition, "drop")]
        model = train_create_drop_model(create, drop)
        rng = np.random.default_rng(self.validation_seed)
        return validate_create_drop(model, create, drop, runs=runs, rng=rng)

    # ------------------------------------------------------------------
    # Figure 9 — steady-state disk validation
    # ------------------------------------------------------------------

    def figure9_validation(self, edition: Edition = Edition.STANDARD_GP,
                           runs: int = 50) -> DiskValidation:
        production = self._steady_usage(edition)
        days = (production.shape[1] - 1) * 20 * 60 // 86400
        rng = np.random.default_rng(self.validation_seed + 1)
        return validate_disk_model(self._steady_schedule(edition),
                                   production, days=days, runs=runs, rng=rng)

    def _steady_usage(self, edition: Edition) -> np.ndarray:
        """The usage of every steady-labeled trace, one row each."""
        return np.stack([t.usage_gb for t in self.artifacts.disk_traces
                         if t.edition is edition and t.pattern == "steady"])

    def _steady_schedule(self, edition: Edition):
        for model in self.artifacts.document.resource_models:
            if (hasattr(model, "steady")
                    and model.selector.edition is edition):
                return model.steady
        raise LookupError(f"no disk model trained for {edition.value}")

    # ------------------------------------------------------------------
    # §4.2.2 ablation — hourly-normal vs KDE vs binning
    # ------------------------------------------------------------------

    def model_selection_ablation(self, edition: Edition = Edition.STANDARD_GP,
                                 runs: int = 30) -> List[ModelComparisonRow]:
        production = self._steady_usage(edition)
        deltas = np.diff(production, axis=1).ravel()
        production_rebased = production - production[:, :1]
        mean_curve = production_rebased.mean(axis=0)
        days = (production.shape[1] - 1) * 20 * 60 // 86400
        models = [
            HourlyNormalDeltaModel(self._steady_schedule(edition)),
            KdeDeltaModel(deltas),
            BinnedDeltaModel(deltas),
        ]
        rng = np.random.default_rng(self.validation_seed + 2)
        return compare_delta_models(mean_curve, models, days=days,
                                    runs=runs, rng=rng)

    # ------------------------------------------------------------------

    def format_report(self) -> str:
        parts = []
        pvalue_rows = []
        for (edition, kind, daytype), values in self.figure7_pvalues().items():
            if not values:
                continue
            box = boxplot_stats(values)
            pvalue_rows.append((edition.short_name, kind, daytype,
                                len(values), f"{box.median:.3f}",
                                f"{box.minimum:.3f}"))
        parts.append(format_table(
            ["edition", "kind", "daytype", "n hours", "median p", "min p"],
            pvalue_rows, title="Figure 7 — K-S normality p-values"))
        parts.append(f"overall rejection rate at alpha=0.05: "
                     f"{100 * self.figure7_rejection_rate():.1f}%")

        for edition in Edition:
            validation = self.figure8_validation(edition, runs=100)
            parts.append(format_table(
                ["edition", "creates RMSE", "drops RMSE", "net RMSE",
                 "rel daily err"],
                [(edition.short_name, f"{validation.creates_rmse():.2f}",
                  f"{validation.drops_rmse():.2f}",
                  f"{validation.net_rmse():.2f}",
                  f"{100 * validation.relative_daily_error():.2f}%")],
                title=f"Figure 8 — create/drop validation ({edition.value})"))

        disk = self.figure9_validation()
        parts.append(format_table(
            ["DTW", "RMSE", "cumulative growth error"],
            [(f"{disk.dtw():.2f}", f"{disk.rmse():.3f}",
              f"{100 * disk.cumulative_growth_error():.2f}%")],
            title="Figure 9 — steady-state disk validation (GP)"))

        ablation = self.model_selection_ablation()
        parts.append(format_table(
            ["model", "DTW", "RMSE", "growth error"],
            [(row.model_name, f"{row.dtw:.2f}", f"{row.rmse:.3f}",
              f"{100 * row.cumulative_growth_error:.1f}%")
             for row in ablation],
            title="§4.2.2 ablation — disk-delta model selection"))
        return "\n\n".join(parts)
