"""Run observability: structured tracing, streaming metrics, profiling.

The paper's evaluation is entirely telemetry-driven ("each experiment
was executed in real time and observed by collecting telemetry from
the cluster", §5.2). This package makes the reproduction observable
the same way: span-based event traces, a central metric registry with
Prometheus/JSONL export, per-event-label profiling, and a run manifest
— all deterministic, RNG-free, and byte-identical between serial and
pooled execution (docs/OBSERVABILITY.md).
"""

from repro.obs.config import ObsConfig
from repro.obs.export import ObsExport, write_obs_export
from repro.obs.manifest import build_manifest, git_describe
from repro.obs.metrics import (
    RUN_METRIC_NAMES,
    MetricRegistry,
    MetricStream,
    wire_run_metrics,
)
from repro.obs.profile import EventProfiler, format_profile_report
from repro.obs.session import ObsSession
from repro.obs.sink import ListSink
from repro.obs.trace import SpanTracer

__all__ = [
    "EventProfiler",
    "ListSink",
    "MetricRegistry",
    "MetricStream",
    "ObsConfig",
    "ObsExport",
    "ObsSession",
    "RUN_METRIC_NAMES",
    "SpanTracer",
    "build_manifest",
    "format_profile_report",
    "git_describe",
    "wire_run_metrics",
    "write_obs_export",
]
