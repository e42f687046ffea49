"""Azure-SQL-DB-like service substrate.

Implements the service pieces Toto is built into (paper §2-3):

* :mod:`repro.sqldb.editions` / :mod:`repro.sqldb.slo` — the service
  tier taxonomy: remote-store Standard/GP (one replica, tempdb-only
  local disk) vs. local-store Premium/BC (four replicas, full data on
  local SSD), each with an SLO catalog of core/memory configurations;
* :mod:`repro.sqldb.database` — database instances and their lifecycle;
* :mod:`repro.sqldb.rgmanager` — the per-node resource-governance
  daemon whose metric-report RPC path Toto intercepts;
* :mod:`repro.sqldb.governance` — its optional noisy-neighbor CPU
  governor (§3.2, §5.5 future work), off unless a ring sets
  ``cpu_governance_limit``;
* :mod:`repro.sqldb.control_plane` — CRUD APIs with admission control
  and creation redirects;
* :mod:`repro.sqldb.tenant_ring` — one stage cluster wired end to end;
* :mod:`repro.sqldb.population` — representative initial populations
  (paper Table 2).
"""

from repro.sqldb.control_plane import ControlPlane, CreationRedirect
from repro.sqldb.database import DatabaseInstance
from repro.sqldb.editions import Edition, StorageKind
from repro.sqldb.governance import CpuGovernor, GovernanceReport
from repro.sqldb.population import InitialPopulationSpec, PopulationMix
from repro.sqldb.rgmanager import RgManager
from repro.sqldb.slo import SLO_CATALOG, ServiceLevelObjective, get_slo
from repro.sqldb.tenant_ring import TenantRing, TenantRingConfig

__all__ = [
    "ControlPlane",
    "CpuGovernor",
    "CreationRedirect",
    "DatabaseInstance",
    "Edition",
    "GovernanceReport",
    "InitialPopulationSpec",
    "PopulationMix",
    "RgManager",
    "SLO_CATALOG",
    "ServiceLevelObjective",
    "StorageKind",
    "TenantRing",
    "TenantRingConfig",
    "get_slo",
]
