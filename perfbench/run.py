"""The repo benchmark: wall seconds per simulated cluster-day, by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-steady --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process

Each invocation sets up (imports, model training, input build) several
times and reports the median, then runs the workload repeatedly for
``--seconds`` and reports the end-to-end timings of the fastest run,
scaled to a reference host speed (hostspeed.py) measured between the
runs. With
``--trace 1`` it also makes one traced run (spans around every layer
seam, see workloads.py) and one run with every obs feature on, and
reports the per-layer metrics instead. Every run's output digest is
checked against ``pins.json`` when the seed is pinned there, and
against the other runs of the invocation otherwise.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` (clusters) and ``metrics`` (name -> value and unit, exactly
the set ``BENCHMARK.json`` declares for the mode).

``--pin SEED [SEED ...]`` runs each seed once per workload and records
the digests in ``pins.json``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import report  # noqa: E402
from perfbench.hostspeed import HostSpeed  # noqa: E402

#: Set-ups per invocation (this process plus fresh child processes);
#: setup_s is their median.
SETUP_SAMPLES = 3
PINS = Path(__file__).resolve().with_name("pins.json")
#: Scratch and trace output, inside the checkout.
OUT = ROOT / ".perfbench"
clock = time.perf_counter


def set_up(names: List[str], seed: int) -> tuple:
    """Import the simulator, train its models, build the inputs.

    Returns ``(timings, workloads module, inputs by workload name)``.
    The import time runs from this process's first statement.
    """
    from perfbench import workloads
    timings = {"import_s": clock() - T_START}
    start = clock()
    workloads.train()
    timings["train_s"] = clock() - start
    start = clock()
    inputs = {name: workloads.WORKLOADS[name].build(seed) for name in names}
    timings["build_s"] = clock() - start
    return timings, workloads, inputs


def setup_sample(names: List[str], seed: int) -> tuple:
    """Set up, then time the reference kernel in the same process.

    Returns ``(timings, workloads module, inputs, kernel passes)``.
    """
    timings, workloads, inputs = set_up(names, seed)
    speed = HostSpeed()
    speed.sample()
    return timings, workloads, inputs, speed.passes


def child_set_up(workload: str, seed: int) -> tuple:
    """One more ``(timings, kernel passes)`` sample, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["timings"], sample["passes"]


class Tally:
    """Clusters attempted and failed over an invocation's runs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def guard(self, clusters: int, fn: Callable[[], Any]) -> Optional[Any]:
        """Run ``fn``; an exception counts its clusters as failed."""
        self.attempted += clusters
        try:
            return fn()
        except Exception:  # the benchmark must report, not die
            traceback.print_exc()
            self.failed += clusters
            return None

    def check(self, clusters: int, digest: str, expected: str,
              what: str) -> None:
        if digest != expected:
            print(f"digest mismatch in {what}: {digest} != {expected}",
                  file=sys.stderr)
            self.failed += clusters


def bench(workloads: Any, name: str, inputs: Any, seed: int,
          seconds: float, trace: bool, setups: List[Dict[str, float]],
          pin: Optional[str], spill: Path, speed: HostSpeed) -> tuple:
    """Measure one workload; returns ``(tally, end_to_end, per_layer)``.

    ``speed`` holds the kernel passes timed after each set-up; it is
    sampled again before every run and after the last. Each end-to-end
    timing is its minimum over the runs (set-ups), scaled by ``speed``. ``per_layer`` is empty without
    ``trace``, and lacks the traced run's metrics if that run failed
    (the tally then says so).
    """
    from perfbench.tracer import Tracer
    workload = workloads.WORKLOADS[name]
    clusters = inputs.cluster_count if workload.fleet else 1
    tally = Tally()
    samples = []
    tracer = Tracer(spill_dir=spill)
    workloads.install(tracer, layers=False)
    try:
        # Start another run while it would end nearer the deadline than
        # stopping now, so an invocation measures about ``seconds``.
        deadline = clock() + seconds
        last = 0.0
        speed.sample()
        while clock() + last / 2 < deadline or not samples:
            if tally.failed >= 3 * clusters:
                break
            began = clock()
            sample = tally.guard(clusters, lambda: workloads.run_once(
                workload, inputs, tracer))
            last = clock() - began
            speed.sample()
            if sample is not None:
                samples.append(sample)
    finally:
        tracer.uninstall()
    if not samples:
        raise SystemExit(f"{name}: every run failed")
    expected = pin if pin is not None else samples[0].digest
    for index, sample in enumerate(samples):
        tally.check(clusters, sample.digest, expected, f"run {index}")

    wall = report.median(s.wall_s for s in samples)
    scale = speed.scale
    end_to_end = {
        "setup_s": scale * min(sum(s.values()) for s in setups),
        "bootstrap_s": scale * min(s.bootstrap_s for s in samples),
        "sim_s_per_cluster_day": scale * min(
            s.sim_s_per_cluster_day for s in samples),
        "fleet_s_per_cluster_day": scale * min(
            s.fleet_s_per_cluster_day for s in samples),
        "peak_rss_mb": report.median(s.peak_rss_mb for s in samples),
    }
    print(f"{name} seed {seed}: {len(samples)} runs, digest {expected[:16]}"
          f"{' (pinned)' if pin else ' (unpinned)'}; raw run walls "
          + " ".join(f"{s.wall_s:.3f}" for s in samples) + "; raw set-ups "
          + " ".join(f"{sum(s.values()):.3f}" for s in setups)
          + f"; host scale {scale:.4f} (fastest of {len(speed.passes)}"
          f" kernel passes {speed.kernel_s * 1e3:.2f} ms)")
    if not trace:
        return tally, end_to_end, {}

    per_layer = {
        "host.kernel_ms": speed.kernel_s * 1e3,
        "setup.import_s": report.median(s["import_s"] for s in setups),
        "setup.train_s": report.median(s["train_s"] for s in setups),
        "setup.build_s": report.median(s["build_s"] for s in setups),
        "parallel.makespan_s": report.median(
            max(s.completions) for s in samples),
        "parallel.tail_s": report.median(
            _tail(s.completions) for s in samples),
    }
    tracer = Tracer(spill_dir=spill)
    workloads.install(tracer, layers=True)

    def traced_run() -> Any:
        traced = workloads.run_once(workload, inputs, tracer)
        per_layer.update(workloads.ledger(tracer.table(), tracer.runs))
        per_layer["trace.overhead_ratio"] = traced.wall_s / wall
        tracer.save(OUT / f"trace-{name}-seed{seed}.npz")
        return traced

    try:
        traced = tally.guard(clusters, traced_run)
    finally:
        tracer.uninstall()
    if traced is not None:
        tally.check(clusters, traced.digest, expected, "traced run")
    ratio = _obs_ratio(workloads, workload, inputs, tally, wall, expected)
    if ratio is not None:
        per_layer["obs.export_overhead_ratio"] = ratio
    return tally, end_to_end, per_layer


def _tail(completions: List[float]) -> float:
    ordered = sorted(completions)
    return ordered[-1] - ordered[-2] if len(ordered) > 1 else 0.0


def _obs_ratio(workloads: Any, workload: Any, inputs: Any, tally: Tally,
               wall: float, expected: str) -> Optional[float]:
    """Wall of a run with every obs feature on over the same run plain.

    A fleet run cannot carry obs flags, so fleet-churn times its first
    cluster both ways instead of reusing the fleet median.
    """
    plain, observed = workloads.obs_pair(workload, inputs)
    if workload.fleet:
        base = tally.guard(1, lambda: workloads.timed_scenario(plain))
        if base is None:
            return None
        wall, expected = base
    timed = tally.guard(1, lambda: workloads.timed_scenario(observed))
    if timed is None:
        return None
    tally.check(1, timed[1], expected, "obs run")
    return timed[0] / wall


def load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS.read_text())["digests"] if PINS.exists() else {}


def pin_seeds(names: List[str], seeds: List[int], spill: Path) -> None:
    """Run each seed once per workload and record its digest."""
    from perfbench.tracer import Tracer
    from perfbench import workloads
    document = (json.loads(PINS.read_text()) if PINS.exists()
                else {"digests": {}, "held_out": {}})
    tracer = Tracer(spill_dir=spill)
    workloads.install(tracer, layers=False)
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            for seed in seeds:
                sample = workloads.run_once(workload, workload.build(seed),
                                            tracer)
                pinned = document["digests"].setdefault(name, {})
                old = pinned.get(str(seed))
                if old is not None and old != sample.digest:
                    raise SystemExit(f"{name} seed {seed}: digest "
                                     f"{sample.digest} != pinned {old}")
                pinned[str(seed)] = sample.digest
                print(f"{name} seed {seed}: {sample.digest} "
                      f"({sample.wall_s:.2f} s)", flush=True)
    finally:
        tracer.uninstall()
    for name in document["digests"]:
        document["digests"][name] = dict(sorted(
            document["digests"][name].items(), key=lambda kv: int(kv[0])))
    PINS.write_text(json.dumps(document, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = report.declared()[2]
    problems = report.check_declaration(spec)
    if problems:
        raise SystemExit("BENCHMARK.json: " + "; ".join(problems))
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=known + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = known if args.workload == "all" else [args.workload]
    if args.setup_sample:
        timings, _, _, passes = setup_sample(names, args.seed)
        print(json.dumps({"timings": timings, "passes": passes}))
        return 0
    spill = OUT / f"work-{os.getpid()}"
    spill.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin:
            pin_seeds(names, args.pin, spill)
        else:
            measure(args, names, spill)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    return 0


def measure(args: argparse.Namespace, names: List[str], spill: Path) -> None:
    """Set up, bench every named workload, print tables and the result."""
    end_units, layer_units, _ = report.declared()
    timings, workloads, inputs, passes = setup_sample(names, args.seed)
    samples = [(timings, passes)] + [child_set_up(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
    setups = [timings for timings, _ in samples]
    speed = HostSpeed()
    for _, passes in samples:
        speed.passes.extend(passes)
    pins = load_pins()
    units = layer_units if args.trace else end_units
    values: Dict[str, float] = {}
    tally = Tally()
    for name in names:
        one, end_to_end, per_layer = bench(
            workloads, name, inputs[name], args.seed, args.seconds,
            bool(args.trace), setups, pins.get(name, {}).get(str(args.seed)),
            spill, speed)
        tally.attempted += one.attempted
        tally.failed += one.failed
        metrics = per_layer if args.trace else end_to_end
        if one.failed:
            # A failed traced run leaves its metrics unmeasured; the
            # result still prints, marked incorrect.
            metrics = {key: metrics.get(key, 0.0) for key in units}
        print(report.table(metrics, units))
        print(f"error_rate  {one.failed / one.attempted:.6g}  fraction "
              f"({one.failed} of {one.attempted} clusters)")
        if len(names) == 1:
            values = metrics
        else:
            values.update({f"{name}.{key}": value
                           for key, value in metrics.items()})
    if len(names) > 1:
        units = {f"{name}.{key}": unit
                 for name in names for key, unit in units.items()}
    print(report.result_line(tally.failed == 0, tally.attempted,
                             tally.failed, values, units))


if __name__ == "__main__":
    sys.exit(main())
