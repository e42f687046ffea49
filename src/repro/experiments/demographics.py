"""The §2 telemetry views: Figures 3a, 3b, and 6.

These figures motivate Toto's design: regional demographic differences
make side-by-side cluster comparisons impractical (3a), most cloud
databases idle at low utilization so TPC-style workloads are the wrong
load model (3b), and creates/drops carry strong hourly and
weekday/weekend structure (6).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.report import format_table
from repro.rng import RngRegistry
from repro.sqldb.editions import Edition
from repro.stats.descriptive import BoxplotStats, boxplot_stats
from repro.telemetry.production import (
    ProductionTraceGenerator,
    UtilizationSample,
)
from repro.telemetry.region import EU_WEST_LIKE, US_EAST_LIKE, RegionProfile


class DemographicsStudy:
    """Generates the telemetry behind Figures 3a, 3b and 6."""

    def __init__(self, seed: int = 7,
                 region_one: RegionProfile = US_EAST_LIKE,
                 region_two: RegionProfile = EU_WEST_LIKE) -> None:
        self.rng = RngRegistry(seed)
        self.region_one = region_one
        self.region_two = region_two

    # ------------------------------------------------------------------
    # Figure 3a — local-store fraction per cluster, two regions
    # ------------------------------------------------------------------

    def figure3a_data(self, days: int = 7) -> Dict[str, List[float]]:
        """All (cluster, day) local-store fractions per region."""
        data: Dict[str, List[float]] = {}
        for profile in (self.region_one, self.region_two):
            generator = ProductionTraceGenerator(
                profile, self.rng.stream("fig3a", profile.name))  # totolint: substream=fig3a/*
            per_day = generator.local_store_fractions(days=days)
            data[profile.name] = [fraction
                                  for day in sorted(per_day)
                                  for fraction in per_day[day]]
        return data

    def figure3a_boxes(self, days: int = 7) -> Dict[str, BoxplotStats]:
        return {region: boxplot_stats(values)
                for region, values in self.figure3a_data(days).items()}

    # ------------------------------------------------------------------
    # Figure 3b — CPU vs memory utilization scatter
    # ------------------------------------------------------------------

    def figure3b_samples(self, n_databases: int = 2000
                         ) -> List[UtilizationSample]:
        """Non-idle databases' (CPU%, memory%) — idle ones removed, as
        the paper does ("we have removed all of the completely idle
        databases - a substantial number")."""
        generator = ProductionTraceGenerator(
            self.region_one, self.rng.stream("fig3b"))
        samples = generator.utilization_snapshot(n_databases)
        return [sample for sample in samples if not sample.idle]

    def figure3b_summary(self) -> dict:
        samples = self.figure3b_samples()
        cpu = np.array([s.cpu_percent for s in samples])
        memory = np.array([s.memory_percent for s in samples])
        return {
            "n": len(samples),
            "cpu_mean": float(cpu.mean()),
            "cpu_p90": float(np.percentile(cpu, 90)),
            "memory_mean": float(memory.mean()),
            "memory_p90": float(np.percentile(memory, 90)),
            "low_cpu_fraction": float((cpu < 30.0).mean()),
        }

    # ------------------------------------------------------------------
    # Figure 6 — creates/hour-of-day dispersion box plots
    # ------------------------------------------------------------------

    def figure6_boxes(self, days: int = 14
                      ) -> Dict[Tuple[Edition, str], List[BoxplotStats]]:
        """Per (edition, daytype): 24 box plots of creates per hour.

        Mirrors the four panels (a-d): Standard/GP weekday, weekend;
        Premium/BC weekday, weekend.
        """
        generator = ProductionTraceGenerator(
            self.region_one, self.rng.stream("fig6"))
        panels: Dict[Tuple[Edition, str], List[BoxplotStats]] = {}
        for edition in Edition:
            trace = generator.event_trace(edition, "create", days=days)
            groups = trace.hourly_samples()
            for daytype, weekend in (("weekday", False), ("weekend", True)):
                boxes = []
                for hour in range(24):
                    values = groups.get((weekend, hour), [0.0])
                    boxes.append(boxplot_stats([float(v) for v in values]))
                panels[(edition, daytype)] = boxes
        return panels

    # ------------------------------------------------------------------

    def format_report(self) -> str:
        parts = []
        boxes_3a = self.figure3a_boxes()
        rows = [(region, round(100 * s.mean, 1), round(100 * s.q1, 1),
                 round(100 * s.median, 1), round(100 * s.q3, 1))
                for region, s in boxes_3a.items()]
        parts.append(format_table(
            ["region", "mean %", "q1 %", "median %", "q3 %"], rows,
            title="Figure 3a — daily local-store DB fraction per cluster"))

        summary = self.figure3b_summary()
        parts.append(format_table(
            ["n", "cpu mean %", "cpu p90 %", "mem mean %", "mem p90 %",
             "cpu<30% share"],
            [(summary["n"], round(summary["cpu_mean"], 1),
              round(summary["cpu_p90"], 1), round(summary["memory_mean"], 1),
              round(summary["memory_p90"], 1),
              f"{100 * summary['low_cpu_fraction']:.0f}%")],
            title="Figure 3b — CPU/memory utilization of non-idle DBs"))

        panels = self.figure6_boxes()
        rows = []
        for (edition, daytype), boxes in panels.items():
            peak_hour = int(np.argmax([box.median for box in boxes]))
            trough_hour = int(np.argmin([box.median for box in boxes]))
            rows.append((edition.short_name, daytype,
                         f"h{peak_hour}", round(boxes[peak_hour].median, 1),
                         f"h{trough_hour}",
                         round(boxes[trough_hour].median, 1)))
        parts.append(format_table(
            ["edition", "daytype", "peak hour", "peak creates",
             "trough hour", "trough creates"],
            rows, title="Figure 6 — creates per hour-of-day (summary)"))
        return "\n\n".join(parts)
