"""The fault injector: applies a :class:`FaultSchedule` to a live run.

The injector is wired between the kernel and the components it
disturbs. Fault *activations* (counters, node crashes, stale-view
snapshots) are kernel events scheduled at each fault's start; the
moment-to-moment effects are **stateless gate checks** against
precomputed absolute windows, so a component asking "is the Naming
Service reachable right now?" never mutates injector state and the
answer depends only on virtual time — the property that keeps chaos
runs byte-identical across serial, pooled, and fresh-interpreter
execution.

Retries never sleep: an injected transient failure is resolved by
walking the caller's jittered backoff schedule forward in *virtual*
time (:func:`repro.chaos.retry.probe_through_backoff`) and comparing
each attempt against the fault window. Jitter comes from the dedicated
``("chaos", "backoff-jitter")`` stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.chaos.faults import FaultKind, FaultSchedule, FaultSpec
from repro.chaos.retry import BackoffPolicy, RetryResult, probe_through_backoff
from repro.errors import ChaosError, NamingUnavailableError, RetryBudgetExceeded
from repro.fabric.naming import NamingFaultGate, _Entry
from repro.rng import RngRegistry
from repro.simkernel import SimulationKernel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.population_manager import PopulationManager
    from repro.sqldb.tenant_ring import TenantRing

#: An absolute fault window: (start, end, target-node-or-None).
Window = Tuple[int, int, Optional[int]]


@dataclass
class ChaosTelemetry:
    """Cumulative fault-injection counters for one run."""

    faults_injected: int = 0
    probes: int = 0
    retries: int = 0
    degraded_intervals: int = 0
    naming_unavailable_errors: int = 0
    naming_stale_reads: int = 0
    rpc_reports_lost: int = 0
    rpc_reports_delayed: int = 0
    creates_timed_out: int = 0
    drops_deferred: int = 0
    pm_ticks_stalled: int = 0
    node_crashes_applied: int = 0
    node_restores: int = 0
    injected_by_kind: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "ChaosKpis":
        """Freeze the counters into a picklable KPI record."""
        return ChaosKpis(
            faults_injected=self.faults_injected,
            probes=self.probes,
            retries=self.retries,
            degraded_intervals=self.degraded_intervals,
            naming_unavailable_errors=self.naming_unavailable_errors,
            naming_stale_reads=self.naming_stale_reads,
            rpc_reports_lost=self.rpc_reports_lost,
            rpc_reports_delayed=self.rpc_reports_delayed,
            creates_timed_out=self.creates_timed_out,
            drops_deferred=self.drops_deferred,
            pm_ticks_stalled=self.pm_ticks_stalled,
            node_crashes_applied=self.node_crashes_applied,
            node_restores=self.node_restores,
            injected_by_kind=tuple(sorted(self.injected_by_kind.items())),
        )


@dataclass(frozen=True)
class ChaosKpis:
    """Final fault-injection counters reported alongside the run KPIs."""

    faults_injected: int
    probes: int
    retries: int
    degraded_intervals: int
    naming_unavailable_errors: int
    naming_stale_reads: int
    rpc_reports_lost: int
    rpc_reports_delayed: int
    creates_timed_out: int
    drops_deferred: int
    pm_ticks_stalled: int
    node_crashes_applied: int
    node_restores: int
    injected_by_kind: Tuple[Tuple[str, int], ...]


class FaultInjector(NamingFaultGate):
    """Applies one :class:`FaultSchedule` to one benchmark run.

    Lifecycle: construct, :meth:`install` (wires the gates into the
    ring's components), :meth:`start` at the experiment's official
    start (fault offsets are relative to it), and :meth:`finish` after
    the run so final scoring reads an undisturbed metastore.
    """

    def __init__(self, kernel: SimulationKernel, ring: "TenantRing",
                 schedule: FaultSchedule, rng_registry: RngRegistry,
                 backoff: Optional[BackoffPolicy] = None,
                 population_manager: Optional["PopulationManager"] = None
                 ) -> None:
        self.kernel = kernel
        self.ring = ring
        self.schedule = schedule
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.population_manager = population_manager
        self.telemetry = ChaosTelemetry()
        self._jitter_rng = rng_registry.stream("chaos", "backoff-jitter")
        self._target_rng = rng_registry.stream("chaos", "target-pick")
        #: Windows per kind, keyed by the member's ``_value_`` string:
        #: the gates look their kind up on every RPC, and a str key
        #: hashes in C where ``Enum.__hash__`` runs in Python.
        self._windows: Dict[str, List[Window]] = {
            kind._value_: [] for kind in FaultKind}
        self._started = False
        self._finished = False
        self._stale_depth = 0
        self._stale_snapshot: Optional[Dict[str, _Entry]] = None
        self.chaos_start = 0
        #: Optional trace callback ``(label, now) -> None`` set by the
        #: observability session (docs/OBSERVABILITY.md). Called only at
        #: gate *decision* points (a fault actually bit), never on clean
        #: passes, so trace volume stays proportional to injected chaos.
        self.trace_hook: Optional[Callable[[str, int], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wire the gates into the ring's components."""
        self.ring.chaos = self
        self.ring.control_plane.attach_chaos(self)
        self.ring.cluster.naming.fault_gate = self
        if self.population_manager is not None:
            self.population_manager.chaos = self

    def start(self) -> None:
        """Arm the schedule; fault offsets count from ``kernel.now``."""
        if self._started:
            raise ChaosError("fault injector already started")
        self._started = True
        self.chaos_start = self.kernel.now
        for spec in self.schedule.specs:
            start, end = spec.window(self.chaos_start)
            target = spec.target
            if spec.kind is FaultKind.NODE_CRASH and target is None:
                target = int(self._target_rng.integers(
                    self.ring.cluster.node_count))
            self._windows[spec.kind._value_].append((start, end, target))
            self.kernel.schedule_oneshot(
                start, lambda s=spec, t=target, e=end: self._activate(s, t, e),
                label=f"chaos-{spec.kind.value}")

    def finish(self) -> None:
        """Disarm every gate so post-run scoring is undisturbed."""
        self._finished = True
        self._stale_depth = 0
        self._stale_snapshot = None

    @property
    def armed(self) -> bool:
        return self._started and not self._finished

    # ------------------------------------------------------------------
    # Activations (kernel events)
    # ------------------------------------------------------------------

    def _activate(self, spec: FaultSpec, target: Optional[int],
                  end: int) -> None:
        telemetry = self.telemetry
        telemetry.faults_injected += 1
        kind = spec.kind.value
        telemetry.injected_by_kind[kind] = \
            telemetry.injected_by_kind.get(kind, 0) + 1
        if spec.kind is FaultKind.NODE_CRASH and target is not None:
            self._crash_node(target, end)
        elif spec.kind is FaultKind.NAMING_STALE:
            self._enter_stale_window(end)

    def _crash_node(self, node_id: int, end: int) -> None:
        cluster = self.ring.cluster
        if not cluster.node(node_id).available:
            return  # already down from an overlapping crash
        cluster.fail_node(node_id, self.kernel.now)
        self.telemetry.node_crashes_applied += 1
        self.kernel.schedule_oneshot(
            end, lambda n=node_id: self._restore_node(n),
            label=f"chaos-restore-node-{node_id}")

    def _restore_node(self, node_id: int) -> None:
        cluster = self.ring.cluster
        if cluster.node(node_id).available:
            return
        cluster.restore_node(node_id)
        self.telemetry.node_restores += 1

    def _enter_stale_window(self, end: int) -> None:
        if self._stale_depth == 0:
            self._stale_snapshot = self.ring.cluster.naming.snapshot()
        self._stale_depth += 1
        self.kernel.schedule_oneshot(end, self._exit_stale_window,
                                     label="chaos-stale-window-end")

    def _exit_stale_window(self) -> None:
        self._stale_depth = max(self._stale_depth - 1, 0)
        if self._stale_depth == 0:
            self._stale_snapshot = None

    # ------------------------------------------------------------------
    # Window arithmetic (stateless)
    # ------------------------------------------------------------------

    def _covered(self, kind: FaultKind, when: float,
                 target: Optional[int] = None) -> bool:
        """Whether a ``kind`` window covers virtual time ``when``.

        A window with ``target=None`` applies to every node; a caller
        passing ``target=None`` matches any window of the kind.
        """
        for start, end, window_target in self._windows[kind._value_]:
            if not start <= when < end:
                continue
            if window_target is None or target is None \
                    or window_target == target:
                return True
        return False

    def _probe(self, kind: FaultKind,
               target: Optional[int] = None) -> RetryResult:
        """Retry the failed call through backoff, in virtual time."""
        result = probe_through_backoff(
            self.backoff, self.kernel.now, self._jitter_rng,
            lambda t: self._covered(kind, t, target))
        self.telemetry.probes += 1
        self.telemetry.retries += result.retries
        return result

    def _mark(self, label: str) -> None:
        """Emit a trace mark at the current virtual time, if tracing."""
        if self.trace_hook is not None:
            self.trace_hook(label, self.kernel.now)

    # ------------------------------------------------------------------
    # Naming Service gate (NamingFaultGate protocol)
    # ------------------------------------------------------------------

    def on_read(self, key: str) -> None:
        self._naming_access(key, "read")

    def on_write(self, key: str) -> None:
        self._naming_access(key, "write")

    def _naming_access(self, key: str, verb: str) -> None:
        if not self.armed:
            return
        if not self._covered(FaultKind.NAMING_OUTAGE, self.kernel.now):
            return
        if self._probe(FaultKind.NAMING_OUTAGE).succeeded:
            return
        self.telemetry.naming_unavailable_errors += 1
        self.telemetry.degraded_intervals += 1
        self._mark(f"chaos-naming-unavailable:{verb}")
        raise NamingUnavailableError(
            f"naming {verb} of '{key}' exhausted its retry budget "
            "during an injected metastore outage")

    def stale_view(self) -> Optional[Dict[str, _Entry]]:
        if not self.armed or self._stale_snapshot is None:
            return None
        if not self._covered(FaultKind.NAMING_STALE, self.kernel.now):
            return None
        self.telemetry.naming_stale_reads += 1
        self._mark("chaos-stale-read")
        return self._stale_snapshot

    # ------------------------------------------------------------------
    # Control-plane gate
    # ------------------------------------------------------------------

    def control_plane_gate(self, op: str, now: int) -> None:
        """Gate one create/drop; raises when the outage outlasts retries."""
        if not self.armed:
            return
        if not self._covered(FaultKind.CONTROL_PLANE, now):
            return
        if self._probe(FaultKind.CONTROL_PLANE).succeeded:
            return
        if op == "create":
            self.telemetry.creates_timed_out += 1
        else:
            self.telemetry.drops_deferred += 1
        self.telemetry.degraded_intervals += 1
        self._mark(f"chaos-{op}-timeout")
        raise RetryBudgetExceeded(
            f"control-plane {op} at t={now} exhausted its retry budget "
            "during an injected transient outage")

    # ------------------------------------------------------------------
    # Metric-report RPC gate
    # ------------------------------------------------------------------

    def rpc_gate(self, node_id: int, now: int) -> bool:
        """Whether a metric-report RPC from ``node_id`` is delivered."""
        if not self.armed:
            return True
        if self._covered(FaultKind.RPC_LOSS, now, node_id):
            self.telemetry.rpc_reports_lost += 1
            self.telemetry.degraded_intervals += 1
            self._mark(f"chaos-rpc-lost:node-{node_id}")
            return False
        if self._covered(FaultKind.RPC_LATENCY, now, node_id):
            if self._probe(FaultKind.RPC_LATENCY, node_id).succeeded:
                self.telemetry.rpc_reports_delayed += 1
                self._mark(f"chaos-rpc-delayed:node-{node_id}")
                return True
            self.telemetry.rpc_reports_lost += 1
            self.telemetry.degraded_intervals += 1
            self._mark(f"chaos-rpc-lost:node-{node_id}")
            return False
        return True

    # ------------------------------------------------------------------
    # Population Manager gate
    # ------------------------------------------------------------------

    def population_gate(self, now: int) -> bool:
        """True when the Population Manager's tick should be skipped."""
        if not self.armed:
            return False
        if self._covered(FaultKind.PM_STALL, now):
            self.telemetry.pm_ticks_stalled += 1
            self.telemetry.degraded_intervals += 1
            self._mark("chaos-pm-stalled")
            return True
        return False
