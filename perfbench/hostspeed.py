"""Host speed, for scaling wall times to a reference host.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over minutes (README.md, "Noise"), far more than any bound a
regression check could use. So every invocation also times a fixed
reference kernel, after each set-up and between its runs: pure-Python
dict and float work plus small NumPy reductions, the simulator's own
mix of work but none of its code.

Contention from other tenants only ever adds time, so the least
contended observation of each is its minimum: the fastest run, and
the fastest kernel pass. End-to-end timings are the fastest run scaled
by ``REFERENCE_S / fastest pass``, i.e. seconds of an uncontended host
that runs the kernel in ``REFERENCE_S``. A change to the simulator
cannot move the kernel, so scaled times compare two commits as raw
times would, without the drift of the minutes each was measured in.
In one recorded set of ten invocations per workload on the reference
host, scaled minima spread across invocations less than raw medians
(0.07-0.08 IQR/median against 0.11-0.27) and less than medians
scaled by the kernel around each run (0.11-0.20); README.md has the
table.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Seconds the fastest kernel pass takes on the reference host (a
#: 2-vCPU VM, Python 3.11.7, NumPy 2.4.6), so scaled times read close
#: to the fastest raw ones there.
REFERENCE_S = 0.019

#: Kernel passes per :meth:`HostSpeed.sample`.
PASSES = 5

_VECTOR = np.linspace(0.0, 1.0, 512)


def kernel() -> float:
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    table: dict = {}
    total = 0.0
    for i in range(120_000):
        key = i & 511
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key]
    for _ in range(1_200):
        total += float((_VECTOR * 1.0001).sum())
    if total < 0:  # keeps the work observable
        raise AssertionError(total)
    return time.perf_counter() - start


class HostSpeed:
    """Kernel passes timed over one invocation, and the scale they give."""

    def __init__(self) -> None:
        self.passes: List[float] = []

    def sample(self) -> None:
        """Time :data:`PASSES` kernel passes now."""
        self.passes.extend(kernel() for _ in range(PASSES))

    @property
    def kernel_s(self) -> float:
        """The fastest pass: the host's speed when least contended."""
        return min(self.passes)

    @property
    def scale(self) -> float:
        """Factor from this host's seconds to reference-host seconds."""
        return REFERENCE_S / self.kernel_s
