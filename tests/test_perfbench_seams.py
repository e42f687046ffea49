"""perfbench wraps simulator functions by name; every name must resolve.

The benchmark's traced run (``perfbench/run.py --trace 1``) patches
each layer's public functions from outside
(``perfbench.workloads.install``). A renamed or deleted function would
otherwise surface only in a traced benchmark run, so this installs
every wrapper on the real classes and modules, then removes them.
"""

from perfbench import workloads
from perfbench.tracer import Tracer
from repro.core.orchestrator import TotoOrchestrator
from repro.core.runner import BenchmarkRunner
from repro.fleet import runner as fleet_runner


def wrapped_attributes():
    """(owner, attribute) for every wrapper ``install`` puts in place."""
    targets = [(BenchmarkRunner, "__init__"), (BenchmarkRunner, "run"),
               (TotoOrchestrator, "publish_models")]
    for _, owners, attr in workloads.SEAMS:
        targets.extend((owner, attr) for owner in owners)
    targets.extend((fleet_runner, attr)
                   for attr in workloads.MERGE_FUNCTIONS)
    return targets


def own_attributes():
    return {(owner, attr): vars(owner).get(attr)
            for owner, attr in wrapped_attributes()}


def test_every_seam_wraps_and_unwraps():
    before = own_attributes()
    originals = {(owner, attr): getattr(owner, attr)
                 for owner, attr in wrapped_attributes()}
    tracer = Tracer()
    try:
        workloads.install(tracer, layers=True)
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert own_attributes() == before
