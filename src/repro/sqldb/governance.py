"""Node-level CPU governance (noisy-neighbor mitigation).

Paper §3.2: RgManager "is responsible for governing the node's
resources and mitigating potential noisy neighbor performance issues";
§5.5: "We will also be exploring how to use Toto to measure
RgManager's effectiveness at mitigating potential performance issues."

This module implements that future-work evaluation hook. The governor
watches the *modeled* CPU usage of every replica on its node (the
advisory ``cpu-used-cores`` metric produced by
:class:`repro.core.cpu_model.CpuUsageModel`) and, when the node's total
usage exceeds a limit, throttles the heaviest consumers down to the
limit while protecting every tenant's fair share — the classic
work-conserving noisy-neighbor policy. Toto then measures
effectiveness as the reduction in node-over-limit exposure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import SqlDbError
from repro.fabric.node import fold_sum


@dataclass
class GovernanceStats:
    """Counters the effectiveness evaluation reads."""

    observations: int = 0
    over_limit_observations: int = 0
    throttle_events: int = 0
    throttled_core_seconds: float = 0.0

    @property
    def over_limit_fraction(self) -> float:
        """Share of observations where raw demand exceeded the limit."""
        if self.observations == 0:
            return 0.0
        return self.over_limit_observations / self.observations


class CpuGovernor:
    """Per-node CPU usage governor.

    Args:
        cpu_capacity_cores: the node's *physical* core count (the
            governor protects hardware, so the density knob does not
            scale it).
        limit_fraction: usable fraction of the node's cores; demand
            beyond it is throttled.
        fair_share_cores: per-replica floor no throttle may cut below —
            every tenant keeps its minimum performance (§3.1: "ensure
            that all customer's resource requirements are met").
        enforce: when False, the governor runs in monitor-only mode —
            it records over-limit exposure but never throttles. This is
            the baseline arm of the §5.5 effectiveness evaluation.
    """

    def __init__(self, cpu_capacity_cores: float,
                 limit_fraction: float = 0.9,
                 fair_share_cores: float = 0.25,
                 enforce: bool = True) -> None:
        if cpu_capacity_cores <= 0:
            raise SqlDbError("cpu_capacity_cores must be positive")
        if not 0.0 < limit_fraction <= 1.0:
            raise SqlDbError(
                f"limit_fraction must be in (0, 1], got {limit_fraction}")
        if fair_share_cores < 0:
            raise SqlDbError("fair_share_cores must be >= 0")
        self.cpu_capacity_cores = cpu_capacity_cores
        self.limit_fraction = limit_fraction
        self.fair_share_cores = fair_share_cores
        self.enforce = enforce
        self.stats = GovernanceStats()

    @property
    def limit_cores(self) -> float:
        return self.limit_fraction * self.cpu_capacity_cores

    def govern(self, usage_by_replica: Dict[int, float],
               interval_seconds: int) -> Dict[int, float]:
        """Return the governed per-replica usage for one interval.

        Largest consumers are throttled first (water-filling down to
        the limit); no replica is cut below ``fair_share_cores`` unless
        its raw demand was already lower.
        """
        self.stats.observations += 1
        total = fold_sum(list(usage_by_replica.values()))
        limit = self.limit_cores
        if total <= limit:
            return dict(usage_by_replica)

        self.stats.over_limit_observations += 1
        if not self.enforce:
            return dict(usage_by_replica)
        governed = dict(usage_by_replica)
        excess = total - limit
        # Throttle heaviest consumers first.
        order = sorted(governed, key=lambda rid: -governed[rid])
        for replica_id in order:
            if excess <= 1e-12:
                break
            raw = governed[replica_id]
            floor = min(self.fair_share_cores, raw)
            cut = min(raw - floor, excess)
            if cut <= 0:
                continue
            governed[replica_id] = raw - cut
            excess -= cut
            self.stats.throttle_events += 1
            self.stats.throttled_core_seconds += cut * interval_seconds
        return governed


@dataclass(frozen=True)
class GovernanceReport:
    """Effectiveness summary across a ring's nodes."""

    nodes: int
    observations: int
    raw_over_limit_fraction: float
    throttle_events: int
    throttled_core_hours: float

    def row(self) -> str:
        return (f"nodes={self.nodes}  obs={self.observations}  "
                f"raw-over-limit={self.raw_over_limit_fraction:.1%}  "
                f"throttles={self.throttle_events}  "
                f"throttled={self.throttled_core_hours:.1f} core-h")


def summarize_governors(governors) -> GovernanceReport:
    """Aggregate effectiveness stats over many nodes' governors."""
    governors = list(governors)
    observations = sum(g.stats.observations for g in governors)
    over = sum(g.stats.over_limit_observations for g in governors)
    return GovernanceReport(
        nodes=len(governors),
        observations=observations,
        raw_over_limit_fraction=over / observations if observations else 0.0,
        throttle_events=sum(g.stats.throttle_events for g in governors),
        throttled_core_hours=fold_sum(
            [g.stats.throttled_core_seconds for g in governors]) / 3600.0,
    )
