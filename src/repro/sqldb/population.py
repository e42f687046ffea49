"""Initial-population synthesis (paper §5.2, Table 2).

"At the beginning of each experiment, we bootstrapped the cluster to
contain an initial population of databases. Using the production
telemetry, we generated an initial population that had a
representative mix of Premium/BC databases vs Standard/GP databases, a
representative mix of SLOs within each service tier, and a
representative mix of initial disk usage loads."

:class:`PopulationMix` captures the demographic knobs;
:func:`generate_initial_population` turns them into a deterministic,
seed-fixed creation order. Targets (total reserved cores, total disk)
are hit by rejection-free scaling: sizes are drawn from the mix and
then the disk draws are scaled so the bootstrap lands at the requested
disk-utilization level (77% in the paper's Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ScenarioError
from repro.fabric.node import fold_sum
from repro.sqldb.editions import Edition, GP_TEMPDB_BASELINE_GB
from repro.sqldb.slo import get_slo


@dataclass(frozen=True)
class CreationOrder:
    """One database the bootstrap (or a test) should create."""

    slo_name: str
    initial_data_gb: float
    rapid_growth: bool = False

    @property
    def edition(self) -> Edition:
        return get_slo(self.slo_name).edition

    @property
    def reserved_cores(self) -> int:
        return get_slo(self.slo_name).total_reserved_cores


@dataclass(frozen=True)
class PopulationMix:
    """Demographic mix used for both bootstrap and churn.

    The default weights skew to small SLOs, matching the paper's
    observation that most cloud databases are small and lightly
    utilized (§2), with BC mixes slightly larger than GP.
    """

    gp_slo_weights: Tuple[Tuple[str, float], ...] = (
        ("GP_Gen5_2", 0.52), ("GP_Gen5_4", 0.28), ("GP_Gen5_6", 0.10),
        ("GP_Gen5_8", 0.06), ("GP_Gen5_16", 0.03), ("GP_Gen5_24", 0.007),
        ("GP_Gen5_32", 0.003),
    )
    bc_slo_weights: Tuple[Tuple[str, float], ...] = (
        ("BC_Gen5_2", 0.38), ("BC_Gen5_4", 0.30), ("BC_Gen5_6", 0.14),
        ("BC_Gen5_8", 0.10), ("BC_Gen5_16", 0.05), ("BC_Gen5_24", 0.02),
        ("BC_Gen5_32", 0.01),
    )
    #: log-space parameters of initial data size per edition.
    gp_data_mu: float = 3.0
    gp_data_sigma: float = 1.2
    bc_data_mu: float = 5.2
    bc_data_sigma: float = 0.9
    data_cap_gb: float = 2048.0
    #: Fraction of databases following the Predictable Rapid Growth
    #: pattern (§4.2.4's "subset of databases").
    rapid_growth_fraction: float = 0.02

    def slo_weights(self, edition: Edition) -> Tuple[Tuple[str, float], ...]:
        if edition is Edition.STANDARD_GP:
            return self.gp_slo_weights
        return self.bc_slo_weights

    def sample_slo(self, edition: Edition, rng: np.random.Generator) -> str:
        weights = self.slo_weights(edition)
        names = [name for name, _ in weights]
        raw = np.array([w for _, w in weights], dtype=float)
        return str(names[int(rng.choice(len(names), p=raw / raw.sum()))])

    def sample_data_gb(self, edition: Edition,
                       rng: np.random.Generator) -> float:
        if edition is Edition.STANDARD_GP:
            mu, sigma = self.gp_data_mu, self.gp_data_sigma
        else:
            mu, sigma = self.bc_data_mu, self.bc_data_sigma
        value = float(rng.lognormal(mu, sigma))
        return float(min(max(value, 0.1), self.data_cap_gb))


@dataclass(frozen=True)
class InitialPopulationSpec:
    """The paper's Table 2 plus resource-utilization targets (Table 3)."""

    gp_count: int = 187
    bc_count: int = 33
    mix: PopulationMix = field(default_factory=PopulationMix)
    #: Target fraction of the 100%-density core budget reserved by the
    #: bootstrap population (Table 3 derives free cores from this).
    target_core_fraction: float = 0.94
    #: Target fraction of cluster disk consumed by the bootstrap
    #: population ("the disk utilization began at 77%", §5.4).
    target_disk_fraction: float = 0.77

    @property
    def total_count(self) -> int:
        return self.gp_count + self.bc_count


def generate_initial_population(
        spec: InitialPopulationSpec,
        cluster_cores_at_100pct: float,
        cluster_disk_gb: float,
        rng: np.random.Generator) -> List[CreationOrder]:
    """Produce the deterministic bootstrap creation order.

    The SLO mix is sampled first; the sampled set is then nudged toward
    the ``target_core_fraction`` by re-rolling the largest/smallest
    entries, and disk draws are scaled so the population's total local
    disk hits ``target_disk_fraction`` of the cluster. The result is a
    list ordered GP-before-BC-interleaved exactly as sampled, so a
    fixed seed yields a fixed population.
    """
    if spec.total_count <= 0:
        raise ScenarioError("initial population must be non-empty")

    # Interleave editions deterministically: spread BC creates evenly
    # through the order (so placement sees a realistic mix).
    editions: List[Edition] = []
    bc_spacing = max(spec.total_count // max(spec.bc_count, 1), 1)
    bc_remaining = spec.bc_count
    for index in range(spec.total_count):
        if bc_remaining > 0 and index % bc_spacing == bc_spacing - 1:
            editions.append(Edition.PREMIUM_BC)
            bc_remaining -= 1
        else:
            editions.append(Edition.STANDARD_GP)
    # Fill any shortfall (rounding) with BC at the tail.
    for index in range(len(editions) - 1, -1, -1):
        if bc_remaining == 0:
            break
        if editions[index] is Edition.STANDARD_GP:
            editions[index] = Edition.PREMIUM_BC
            bc_remaining -= 1

    slo_names = [spec.mix.sample_slo(edition, rng) for edition in editions]
    data_sizes = [spec.mix.sample_data_gb(edition, rng)
                  for edition in editions]
    rapid_flags = [bool(rng.random() < spec.mix.rapid_growth_fraction)
                   for _ in editions]

    _retune_cores(slo_names, editions, spec, cluster_cores_at_100pct, rng)
    _rescale_disk(data_sizes, slo_names, spec, cluster_disk_gb)

    orders = [CreationOrder(slo_name=slo_names[i],
                            initial_data_gb=data_sizes[i],
                            rapid_growth=rapid_flags[i])
              for i in range(spec.total_count)]
    # Largest reservations first: a dense bootstrap (94% of the core
    # budget) only packs if big replicas land while nodes still have
    # contiguous headroom. Stable sort keeps determinism.
    orders.sort(key=lambda order: -order.reserved_cores)
    return orders


def _retune_cores(slo_names: List[str], editions: List[Edition],
                  spec: InitialPopulationSpec, budget_cores: float,
                  rng: np.random.Generator) -> None:
    """Nudge the sampled SLO mix toward the target core reservation.

    Re-rolls random entries to one-step-larger or one-step-smaller SLOs
    until the total reserved cores is within one node-worth of the
    target (or no further progress is possible).
    """
    from repro.sqldb.slo import CORE_SIZES, slo_name as make_name

    target = spec.target_core_fraction * budget_cores
    # Reserved cores are integers, so the running total is exactly the
    # recomputed sum — same exit iteration, same rng draws — while a
    # 10k-database bootstrap drops from O(n^2) to O(n) SLO lookups.
    total = sum(get_slo(name).total_reserved_cores for name in slo_names)
    for _ in range(10 * len(slo_names)):
        error = target - total
        if abs(error) <= 8:
            return
        index = int(rng.integers(len(slo_names)))
        slo = get_slo(slo_names[index])
        position = CORE_SIZES.index(slo.cores)
        if error > 0 and position + 1 < len(CORE_SIZES):
            new_name = make_name(editions[index], CORE_SIZES[position + 1])
        elif error < 0 and position > 0:
            new_name = make_name(editions[index], CORE_SIZES[position - 1])
        else:
            continue
        total += (get_slo(new_name).total_reserved_cores
                  - slo.total_reserved_cores)
        slo_names[index] = new_name


def _rescale_disk(data_sizes: List[float], slo_names: List[str],
                  spec: InitialPopulationSpec,
                  cluster_disk_gb: float) -> None:
    """Scale data draws so total *local* disk hits the target fraction.

    Local disk counts each BC replica separately and only tempdb for
    GP, matching how the PLB sees the cluster (§2).
    """
    target_gb = spec.target_disk_fraction * cluster_disk_gb
    fixed = 0.0     # GP tempdb is a constant footprint
    scalable = 0.0  # BC data scales with the draws
    for name, size in zip(slo_names, data_sizes):
        slo = get_slo(name)
        if slo.edition is Edition.STANDARD_GP:
            fixed += GP_TEMPDB_BASELINE_GB
        else:
            scalable += size * slo.replica_count
    if scalable <= 0:
        return
    factor = max((target_gb - fixed) / scalable, 0.01)
    for index, name in enumerate(slo_names):
        if get_slo(name).edition is Edition.PREMIUM_BC:
            data_sizes[index] = float(
                min(data_sizes[index] * factor, spec.mix.data_cap_gb))


def population_summary(orders: List[CreationOrder]) -> Dict[str, float]:
    """Aggregate view of a creation order list (used by Table 2/3)."""
    gp = [o for o in orders if o.edition is Edition.STANDARD_GP]
    bc = [o for o in orders if o.edition is Edition.PREMIUM_BC]
    total_cores = sum(o.reserved_cores for o in orders)
    local_disk = fold_sum([
        o.initial_data_gb * get_slo(o.slo_name).replica_count
        if o.edition is Edition.PREMIUM_BC else GP_TEMPDB_BASELINE_GB
        for o in orders])
    return {
        "gp_count": len(gp),
        "bc_count": len(bc),
        "total_count": len(orders),
        "reserved_cores": float(total_cores),
        "local_disk_gb": float(local_disk),
    }
