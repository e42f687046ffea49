"""Discrete-event simulation kernel.

The paper runs each experiment in real time on a live stage cluster; we
replace wall-clock time with a deterministic event-driven clock so a
six-day benchmark finishes in seconds while every periodic behaviour
(metric reports every 5 minutes, model refresh every 15 minutes, the
Population Manager waking at the top of each hour) fires at exactly the
same simulated instants it would in the real deployment.
"""

from repro.simkernel.event import Event
from repro.simkernel.kernel import KernelObserver, SimulationKernel
from repro.simkernel.process import PeriodicProcess

__all__ = [
    "Event",
    "KernelObserver",
    "PeriodicProcess",
    "SimulationKernel",
]
