"""The host-speed scale: reference seconds over the fastest kernel pass."""

from __future__ import annotations

from perfbench import hostspeed
from perfbench.hostspeed import HostSpeed


def test_scale_is_reference_over_fastest_pass():
    speed = HostSpeed()
    speed.passes = [0.04, 0.025, 0.02, 0.03, 0.5]
    assert speed.kernel_s == 0.02
    assert speed.scale == hostspeed.REFERENCE_S / 0.02


def test_sample_times_every_pass():
    speed = HostSpeed()
    speed.sample()
    speed.sample()
    assert len(speed.passes) == 2 * hostspeed.PASSES
    assert all(p > 0 for p in speed.passes)
