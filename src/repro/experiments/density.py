"""The §5 density study: Figures 2, 10, 11, 12, 14 and Tables 2, 3.

Four back-to-back experiments at 100 / 110 / 120 / 140 % density, all
sharing the same trained model document, the same Population Manager
seed (so the request sequence is identical), and the same bootstrap
population — exactly the §5.2 protocol. Results are cached per study
so each figure's benchmark re-uses one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.runner import BenchmarkResult
from repro.experiments.report import format_table
from repro.experiments.scenarios import paper_scenario
from repro.parallel import SweepExecutor
from repro.parallel.executor import ProgressCallback
from repro.sqldb.population import InitialPopulationSpec

#: The paper's density levels.
PAPER_DENSITIES: Tuple[float, ...] = (1.0, 1.1, 1.2, 1.4)


@dataclass(frozen=True)
class DensitySummaryRow:
    """One density's entry in the study summary (feeds Figures 2/12/14)."""

    density: float
    final_reserved_cores: float
    final_disk_gb: float
    creation_redirects: int
    first_redirect_hour: Optional[int]
    failover_count: int
    failover_cores: float
    failover_bc_cores: float
    gross_revenue: float
    penalty: float
    adjusted_revenue: float

    @property
    def density_pct(self) -> int:
        return int(round(self.density * 100))


class DensityStudy:
    """Runs the sweep once and serves every figure from it."""

    def __init__(self, densities: Sequence[float] = PAPER_DENSITIES,
                 days: float = 6.0, seed: int = 42,
                 maintenance: bool = True,
                 population: Optional[InitialPopulationSpec] = None,
                 max_workers: Optional[int] = None,
                 progress: Optional[ProgressCallback] = None) -> None:
        self.densities = tuple(densities)
        if 1.0 not in self.densities:
            raise ValueError("the study needs the 100% baseline")
        self.days = days
        self.seed = seed
        self.maintenance = maintenance
        self.population = population
        self.max_workers = max_workers
        self.progress = progress
        self._results: Dict[float, BenchmarkResult] = {}

    # ------------------------------------------------------------------

    def run(self) -> Dict[float, BenchmarkResult]:
        """Execute (or return cached) runs for every density.

        The densities are independent experiments sharing one model
        document, so they fan out over :class:`SweepExecutor`; results
        are keyed by density regardless of completion order and are
        identical to the serial path (``max_workers=1``).
        """
        pending = [density for density in self.densities
                   if density not in self._results]
        if pending:
            scenarios = [paper_scenario(
                density=density, days=self.days, seed=self.seed,
                maintenance=self.maintenance,
                population=self.population) for density in pending]
            executor = SweepExecutor(max_workers=self.max_workers,
                                     progress=self.progress)
            for density, result in zip(pending, executor.run(scenarios)):
                self._results[density] = result
        return dict(self._results)

    def result(self, density: float) -> BenchmarkResult:
        self.run()
        return self._results[density]

    @property
    def baseline(self) -> BenchmarkResult:
        return self.result(1.0)

    # ------------------------------------------------------------------
    # Summary rows
    # ------------------------------------------------------------------

    def summary_rows(self) -> List[DensitySummaryRow]:
        rows = []
        for density in self.densities:
            result = self.result(density)
            kpis = result.kpis
            rows.append(DensitySummaryRow(
                density=density,
                final_reserved_cores=kpis.final_reserved_cores,
                final_disk_gb=kpis.final_disk_gb,
                creation_redirects=kpis.creation_redirects,
                first_redirect_hour=result.first_redirect_hour(),
                failover_count=kpis.failovers.count,
                failover_cores=kpis.failovers.total_cores_moved,
                failover_bc_cores=kpis.failovers.bc_cores_moved,
                gross_revenue=result.revenue.total_gross,
                penalty=result.revenue.total_penalty,
                adjusted_revenue=result.revenue.total_adjusted,
            ))
        return rows

    # ------------------------------------------------------------------
    # Figure 2 — density-study summary scatter
    # ------------------------------------------------------------------

    def figure2_rows(self) -> List[dict]:
        """Per non-baseline density: relative CPU-reservation change,
        relative capacity moved, relative adjusted revenue."""
        base = self.baseline
        base_cores = base.kpis.final_reserved_cores
        base_moved = max(base.kpis.failovers.total_cores_moved, 1e-9)
        base_revenue = base.revenue.total_adjusted
        rows = []
        for density in self.densities:
            if density == 1.0:
                continue
            result = self.result(density)
            rows.append({
                "density_pct": int(round(density * 100)),
                "rel_cpu_reservation":
                    result.kpis.final_reserved_cores / base_cores - 1.0,
                "rel_capacity_moved":
                    result.kpis.failovers.total_cores_moved / base_moved,
                "rel_adjusted_revenue":
                    result.revenue.total_adjusted / base_revenue,
            })
        return rows

    def format_figure2(self) -> str:
        rows = [(r["density_pct"],
                 f"{100 * r['rel_cpu_reservation']:+.1f}%",
                 f"{100 * r['rel_capacity_moved']:.0f}%",
                 f"{100 * (r['rel_adjusted_revenue'] - 1):+.1f}%")
                for r in self.figure2_rows()]
        return format_table(
            ["density %", "rel CPU reservation", "rel capacity moved",
             "rel adjusted revenue"],
            rows, title="Figure 2 — density vs QoS vs adjusted revenue")

    # ------------------------------------------------------------------
    # Figure 10 — cumulative creation redirects
    # ------------------------------------------------------------------

    def figure10_series(self) -> Dict[int, List[int]]:
        """Hourly cumulative redirect count per density."""
        return {int(round(d * 100)): self.result(d).redirect_series()
                for d in self.densities}

    def format_figure10(self, every: int = 12) -> str:
        series = self.figure10_series()
        hours = range(0, min(len(s) for s in series.values()), every)
        rows = [[f"h{h}"] + [series[pct][h] for pct in sorted(series)]
                for h in hours]
        headers = ["hour"] + [f"{pct}%" for pct in sorted(series)]
        return format_table(headers, rows,
                            title="Figure 10 — cumulative creation redirects")

    # ------------------------------------------------------------------
    # Figure 11 — reserved cores vs disk usage
    # ------------------------------------------------------------------

    def figure11_points(self) -> Dict[int, List[Tuple[float, float]]]:
        """(reserved cores, disk GB) per hour, per density."""
        return {int(round(d * 100)): self.result(d).cores_vs_disk()
                for d in self.densities}

    def format_figure11(self, every: int = 24) -> str:
        points = self.figure11_points()
        rows = []
        for pct in sorted(points):
            for index, (cores, disk) in enumerate(points[pct]):
                if index % every == 0:
                    rows.append((f"{pct}%", f"h{index}", round(cores),
                                 round(disk)))
        return format_table(["density", "hour", "reserved cores", "disk GB"],
                            rows,
                            title="Figure 11 — reserved cores vs disk usage")

    # ------------------------------------------------------------------
    # Figure 12 — relative utilization and failed-over cores
    # ------------------------------------------------------------------

    def figure12a_rows(self) -> List[dict]:
        base = self.baseline
        rows = []
        for density in self.densities:
            result = self.result(density)
            rows.append({
                "density_pct": int(round(density * 100)),
                "rel_disk": (result.kpis.final_disk_gb
                             / base.kpis.final_disk_gb),
                "rel_cores": (result.kpis.final_reserved_cores
                              / base.kpis.final_reserved_cores),
            })
        return rows

    def figure12b_rows(self) -> List[dict]:
        rows = []
        for density in self.densities:
            failovers = self.result(density).kpis.failovers
            rows.append({
                "density_pct": int(round(density * 100)),
                "gp_cores_moved": failovers.gp_cores_moved,
                "bc_cores_moved": failovers.bc_cores_moved,
                "total_cores_moved": failovers.total_cores_moved,
            })
        return rows

    def format_figure12(self) -> str:
        a_rows = [(r["density_pct"], f"{r['rel_disk']:.3f}",
                   f"{r['rel_cores']:.3f}") for r in self.figure12a_rows()]
        b_rows = [(r["density_pct"], round(r["gp_cores_moved"]),
                   round(r["bc_cores_moved"]),
                   round(r["total_cores_moved"]))
                  for r in self.figure12b_rows()]
        return (format_table(["density %", "rel disk", "rel cores"], a_rows,
                             title="Figure 12a — utilization relative to 100%")
                + "\n\n"
                + format_table(["density %", "GP cores", "BC cores", "total"],
                               b_rows,
                               title="Figure 12b — failed-over cores"))

    # ------------------------------------------------------------------
    # Figure 14 — modeled adjusted revenue
    # ------------------------------------------------------------------

    def figure14_rows(self) -> List[dict]:
        rows = []
        for density in self.densities:
            revenue = self.result(density).revenue
            rows.append({
                "density_pct": int(round(density * 100)),
                "gross": revenue.total_gross,
                "penalty": revenue.total_penalty,
                "adjusted": revenue.total_adjusted,
                "penalized_databases": revenue.penalized_databases,
            })
        return rows

    def format_figure14(self) -> str:
        rows = [(r["density_pct"], round(r["gross"]), round(r["penalty"]),
                 round(r["adjusted"]), r["penalized_databases"])
                for r in self.figure14_rows()]
        return format_table(
            ["density %", "gross $", "penalty $", "adjusted $",
             "penalized DBs"],
            rows, title="Figure 14 — total modeled adjusted revenue")

    # ------------------------------------------------------------------
    # Tables 2 and 3
    # ------------------------------------------------------------------

    def table2_row(self) -> dict:
        """Initial population breakdown (identical across densities)."""
        result = self.baseline
        first = result.frames[0]
        return {
            "premium_bc": first.active_bc,
            "standard_gp": first.active_gp,
            "total": first.active_total,
        }

    def table3_rows(self) -> List[dict]:
        """Free remaining logical cores and disk % after bootstrap."""
        rows = []
        for density in self.densities:
            result = self.result(density)
            rows.append({
                "density_pct": int(round(density * 100)),
                "free_remaining_cores": round(result.bootstrap_free_cores),
                "disk_usage_pct":
                    round(100 * result.bootstrap_disk_utilization),
            })
        return rows

    def format_tables(self) -> str:
        t2 = self.table2_row()
        table2 = format_table(
            ["Premium/BC", "Standard/GP", "Total"],
            [(t2["premium_bc"], t2["standard_gp"], t2["total"])],
            title="Table 2 — initial population")
        table3 = format_table(
            ["density %", "free remaining cores", "disk usage %"],
            [(r["density_pct"], r["free_remaining_cores"],
              r["disk_usage_pct"]) for r in self.table3_rows()],
            title="Table 3 — experiment parameters")
        return table2 + "\n\n" + table3

