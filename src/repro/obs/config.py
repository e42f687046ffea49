"""Declarative observability configuration.

:class:`ObsConfig` rides inside a
:class:`~repro.core.scenario.BenchmarkScenario`, so the same frozen,
picklable declaration that describes a run also describes what the run
exports — which is what lets :class:`~repro.parallel.executor.SweepExecutor`
workers produce byte-identical exports to the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class ObsConfig:
    """What one run records and exports (all off by default).

    Attributes:
        trace: emit one JSONL span per executed kernel event (plus
            instant marks at chaos gate decisions), with parent links
            from schedule site to fire site.
        metrics: publish the run's counters/gauges through a
            :class:`~repro.obs.metrics.MetricRegistry`, sampled once per
            telemetry frame into per-hour JSONL and dumped as a
            Prometheus textfile at the end of the run.
        profile: keep per-event-label counts and virtual-time
            scheduling-delay histograms, exported as deterministic JSON.
        wall_clock: optional injected monotonic clock (e.g.
            ``time.perf_counter``) enabling wall-time accounting in the
            *human-readable* profile report. Never read inside
            ``repro.obs`` itself (rule TL014) and never included in the
            deterministic ``profile.json`` export — wall times are the
            one explicitly non-deterministic diagnostic.
    """

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    wall_clock: Optional[Callable[[], float]] = None

    @property
    def enabled(self) -> bool:
        """Whether any observability feature is on."""
        return self.trace or self.metrics or self.profile

    @property
    def needs_kernel_observer(self) -> bool:
        """Tracing and profiling hook the kernel's event loop."""
        return self.trace or self.profile
