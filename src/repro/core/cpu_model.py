"""CPU-usage model (paper §5.5 future work).

CPU *reservations* (the SLO core count) are what the density experiment
governs; CPU *usage* is listed as future modeling work. We implement an
hourly-normal utilization model — most cloud databases idle at low
utilization with business-hour peaks (paper Figure 3b) — reporting
used cores as ``utilization x SLO cores``. Like memory, CPU usage is
non-persisted: it resets when a replica moves.

The model reports under a dedicated advisory metric name so it never
interferes with the reservation metric the PLB enforces. Its values
feed only RgManager's noisy-neighbor governor
(:mod:`repro.sqldb.governance`), so a ring samples it only when a
governor is installed (``cpu_governance_limit > 0``): one batched draw
per node per sweep (:meth:`CpuUsageModel.utilization_params`).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.hourly_schedule import HourlyNormalSchedule
from repro.core.model_base import ModelContext, ResourceModel
from repro.core.selectors import DatabaseSelector
from repro.fabric.metrics import CPU_USED_CORES
from repro.sqldb.database import DatabaseInstance

__all__ = ["CPU_USED_CORES", "CpuUsageModel"]


class CpuUsageModel(ResourceModel):
    """Hourly-normal CPU utilization sampled per report."""

    metric = CPU_USED_CORES
    persisted = False

    def __init__(self, selector: DatabaseSelector,
                 utilization: HourlyNormalSchedule,
                 secondary_fraction: float = 0.3,
                 start_weekday: int = 0) -> None:
        utilization.validate()
        self.selector = selector
        self.utilization = utilization
        self.secondary_fraction = secondary_fraction
        self.start_weekday = start_weekday

    def kind(self) -> str:
        return "CpuUsageModel"

    def utilization_params(self, now: int) -> Tuple[float, float]:
        """(mu, sigma) of the utilization draw at ``now``.

        Split out so a sweep can assemble one batched draw for every
        replica on a node (RgManager's vectorized CPU observation);
        the value derivation from the raw draw lives in
        :meth:`value_from_utilization`.
        """
        return self.utilization.params_at(now, self.start_weekday)

    def value_from_utilization(self, draw: float, is_primary: bool,
                               database: DatabaseInstance) -> float:
        """Used cores from one raw utilization draw."""
        utilization = min(max(draw, 0.0), 1.0)
        if not is_primary:
            utilization *= self.secondary_fraction
        return utilization * database.slo.cores

    def initial_value(self, context: ModelContext) -> float:
        """Fresh replicas start effectively idle."""
        return 0.0

    def next_value(self, context: ModelContext) -> float:
        mu, sigma = self.utilization_params(context.now)
        draw = float(context.rng.normal(mu, sigma)) if sigma > 0 else mu
        return self.value_from_utilization(draw, context.is_primary,
                                           context.database)
