"""Emit BENCH_perf.json: the repo's performance trajectory record.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py            # full
    PYTHONPATH=src python benchmarks/emit_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/emit_bench.py --quick --check
        # regression gates vs the committed BENCH_perf.json; writes
        # nothing.  Fails (exit 1) when the committed sweep record says
        # parallel != serial, when re-measured kernel throughput drops
        # >20% (skipped with a warning if the committed record came
        # from a machine with a different core count), or when one
        # re-measured cold lint takes >50% longer than committed

Records three headline numbers so future PRs can compare against the
current state instead of guessing:

* ``kernel_events_per_sec`` — raw event-layer throughput
  (``bench_perf_kernel.pump_kernel``);
* ``single_run`` — events/sec of one full benchmark run (models, PLB,
  telemetry included), the number that dominates every study;
* ``sweep`` — wall-clock of the 4-density x N-seed sweep at
  ``workers=1`` vs ``workers=4`` and the resulting speedup. The block
  records ``effective_cores``; when the machine has fewer cores than
  workers the speedup is reported as ``null`` with a ``"cpu-bound"``
  note (process parallelism cannot pay without cores — a ~1.0x wall
  ratio there is expected, not a parallelism regression);
* ``fleet`` — the region-scale tier (docs/FLEET.md): N clusters
  stamped from one template, run serial vs sharded, recording wall
  clock and the merged summary digest. The digest is a pure function
  of the topology, so ``--check`` replays the committed configuration
  and fails on any drift — a deterministic gate, immune to machine
  noise;
* ``lint`` — cold vs. content-hash-cached whole-program analysis of
  ``src/repro`` (``benchmarks/bench_lint.py``).

The JSON lands in the repo root as ``BENCH_perf.json``; commit it so
the trajectory is versioned alongside the code it measures.

Methodology: the kernel number is the best of three passes — the shared
bench machine throttles unpredictably, and the best pass is the stable
estimate of what the code can do (the quantity the trajectory tracks),
while single passes swing 2x with machine load.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.bench_lint import (  # noqa: E402
    bench_lint,
    bench_totonum,
    bench_totoperf,
)
from benchmarks.bench_perf_kernel import pump_kernel  # noqa: E402
from repro import __version__  # noqa: E402
from repro.core.runner import run_scenario  # noqa: E402
from repro.experiments.scenarios import paper_scenario  # noqa: E402
from repro.fleet import ClusterTemplate, FleetTopology, run_fleet  # noqa: E402
from repro.parallel import SweepExecutor  # noqa: E402

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: --check fails when the re-measured kernel throughput drops more than
#: this fraction below the committed number.
REGRESSION_TOLERANCE = 0.20
#: --check fails when a re-measured cold lint takes more than this
#: fraction longer than the committed number (the analyzer is pure
#: CPU-bound AST walking, so a 1.5x blowup is a real regression, not
#: machine noise).
LINT_REGRESSION_TOLERANCE = 0.50
#: Passes for the best-of-N kernel measurement.
KERNEL_PASSES = 3


def bench_kernel(target_events: int) -> dict:
    """Best-of-N kernel microbenchmark (see module docstring)."""
    best = None
    for _ in range(KERNEL_PASSES):
        result = pump_kernel(target_events)
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    best["passes"] = KERNEL_PASSES
    return best


def check_kernel_regression(measured: float, out_path: str) -> int:
    """Gate: compare ``measured`` against the committed record."""
    path = pathlib.Path(out_path)
    if not path.exists():
        print(f"no committed {path.name}; nothing to compare against")
        return 0
    committed = json.loads(path.read_text())["kernel_events_per_sec"]
    floor = committed * (1.0 - REGRESSION_TOLERANCE)
    verdict = "OK" if measured >= floor else "REGRESSION"
    print(f"kernel events/sec: measured {measured:,.0f} vs committed "
          f"{committed:,.0f} (floor {floor:,.0f}) -> {verdict}")
    return 0 if measured >= floor else 1


def run_checks(out_path: str, kernel_events: int) -> int:
    """The ``--check`` regression gates against the committed record.

    Five gates, all reported before the combined verdict:

    * **sweep** — the committed record itself must say the parallel
      sweep reproduced the serial results (``results_identical``);
    * **sweep ratio** — the committed speedup must not be < 1.0;
      skipped (like the kernel gate) when the committed record is
      cpu-bound (``effective_cores < workers``), where the wall ratio
      measures scheduler noise rather than parallelism;
    * **fleet** — replay the committed fleet configuration serially
      and compare merged digests (deterministic, machine-independent);
    * **kernel** — re-measure and compare throughput, skipped with a
      warning when the committed record was taken on a machine with a
      different core count (throughput is not comparable across them);
    * **lint** — re-measure one cold whole-program analysis and fail
      when it regressed more than ``LINT_REGRESSION_TOLERANCE``;
    * **totonum** — same ceiling for one cold numeric-tier
      (TL030..TL034) run, so the merge-registry/numeric-scope
      inference cannot quietly blow up lint latency.
    """
    path = pathlib.Path(out_path)
    if not path.exists():
        print(f"no committed {path.name}; nothing to compare against")
        return 0
    committed = json.loads(path.read_text())
    failures = 0

    sweep = committed.get("sweep", {})
    if sweep.get("results_identical") is False:
        print("sweep: committed record shows parallel != serial results "
              "-> FAIL (the sweep must reproduce the serial run "
              "byte for byte before its numbers mean anything)")
        failures += 1
    else:
        print("sweep: committed results_identical -> OK")

    sweep_workers = sweep.get("workers")
    sweep_cores = sweep.get("effective_cores")
    gate = sweep.get("gate")
    if gate is None:
        # Records written before the explicit gate field: re-derive the
        # verdict the emitter would have recorded.
        gate = ("skipped"
                if (sweep_cores is not None and sweep_workers is not None
                    and sweep_cores < sweep_workers)
                else "active")
    if gate == "skipped":
        # Same reasoning as the kernel gate's cross-machine skip: with
        # fewer cores than workers the wall ratio measures scheduler
        # noise, so on a 1-core CI runner it must not gate anything.
        print(f"sweep ratio gate SKIPPED: committed record is cpu-bound "
              f"({sweep_cores} core(s) < {sweep_workers} workers)")
    elif sweep.get("speedup") is not None and sweep["speedup"] < 1.0:
        print(f"sweep ratio: committed speedup {sweep['speedup']} < 1.0 "
              "-> FAIL (parallel slower than serial on a machine with "
              "enough cores)")
        failures += 1
    else:
        print("sweep ratio: OK")

    failures += check_fleet_gate(committed.get("fleet"))

    committed_cpus = committed.get("machine", {}).get("cpu_count")
    current_cpus = os.cpu_count()
    if committed_cpus != current_cpus:
        print(f"kernel gate SKIPPED: committed record measured on "
              f"{committed_cpus} cpu(s), this machine has {current_cpus}; "
              "throughput is not comparable across machines")
    else:
        print("kernel microbenchmark ...", flush=True)
        kernel = bench_kernel(kernel_events)
        failures += check_kernel_regression(kernel["events_per_sec"],
                                            out_path)

    committed_cold = committed.get("lint", {}).get("cold_seconds")
    if committed_cold:
        print("cold lint ...", flush=True)
        measured_cold = bench_lint(repeats=1)["cold_seconds"]
        ceiling = committed_cold * (1.0 + LINT_REGRESSION_TOLERANCE)
        verdict = "OK" if measured_cold <= ceiling else "REGRESSION"
        print(f"lint cold seconds: measured {measured_cold} vs committed "
              f"{committed_cold} (ceiling {ceiling:.3f}) -> {verdict}")
        if measured_cold > ceiling:
            failures += 1
    else:
        print("lint gate skipped: committed record has no "
              "lint.cold_seconds")

    committed_num = committed.get("totonum", {}).get("cold_seconds")
    if committed_num:
        print("cold numeric-tier lint ...", flush=True)
        measured_num = bench_totonum(repeats=1)["cold_seconds"]
        ceiling = committed_num * (1.0 + LINT_REGRESSION_TOLERANCE)
        verdict = "OK" if measured_num <= ceiling else "REGRESSION"
        print(f"totonum cold seconds: measured {measured_num} vs "
              f"committed {committed_num} (ceiling {ceiling:.3f}) -> "
              f"{verdict}")
        if measured_num > ceiling:
            failures += 1
    else:
        print("totonum gate skipped: committed record has no "
              "totonum.cold_seconds")

    return 1 if failures else 0


def check_fleet_gate(fleet: dict) -> int:
    """Deterministic fleet gate: replay the committed config, compare
    digests.

    Unlike the timing gates, the fleet digest is a pure function of the
    topology — identical on every machine — so this gate re-runs the
    committed configuration serially and fails on *any* drift in the
    simulator, the worker-side reducer, or the merge.
    """
    if not fleet:
        print("fleet gate skipped: committed record has no fleet row")
        return 0
    if fleet.get("digests_identical") is False:
        print("fleet: committed record shows serial != sharded digest "
              "-> FAIL (the fleet merge must be execution-mode "
              "independent)")
        return 1
    topology = FleetTopology(
        cluster_count=fleet["clusters"], prefix="bench",
        template=ClusterTemplate(node_count=fleet["node_count"],
                                 days=fleet["days"]))
    print(f"fleet digest replay ({fleet['clusters']} clusters) ...",
          flush=True)
    measured = run_fleet(topology, max_workers=1).digest
    verdict = "OK" if measured == fleet["digest"] else "REGRESSION"
    print(f"fleet digest: measured {measured[:16]}... vs committed "
          f"{fleet['digest'][:16]}... -> {verdict}")
    return 0 if measured == fleet["digest"] else 1


def bench_fleet(clusters: int, node_count: int, days: float,
                workers: int) -> dict:
    """Fleet-scale row: serial vs sharded wall clock plus the digest."""
    topology = FleetTopology(
        cluster_count=clusters, prefix="bench",
        template=ClusterTemplate(node_count=node_count, days=days))
    start = time.perf_counter()
    serial = run_fleet(topology, max_workers=1)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    sharded = run_fleet(topology, max_workers=workers)
    sharded_seconds = time.perf_counter() - start
    return {
        "clusters": clusters,
        "node_count": node_count,
        "days": days,
        "databases": serial.kpis.databases_created,
        "events": serial.kpis.events_executed,
        "serial_seconds": round(serial_seconds, 2),
        "sharded_seconds": round(sharded_seconds, 2),
        "workers": workers,
        "effective_cores": os.cpu_count() or 1,
        "events_per_sec": round(
            serial.kpis.events_executed / serial_seconds, 1),
        "mode": sharded.mode,
        "digest": serial.digest,
        "digests_identical": serial.digest == sharded.digest,
    }


def bench_single_run(days: float, seed: int = 42) -> dict:
    scenario = paper_scenario(density=1.1, days=days, seed=seed,
                              maintenance=False)
    start = time.perf_counter()
    result = run_scenario(scenario)
    elapsed = time.perf_counter() - start
    return {
        "days": days,
        "events": result.events_executed,
        "seconds": round(elapsed, 3),
        "events_per_sec": round(result.events_executed / elapsed, 1),
    }


def bench_sweep(days: float, seeds: tuple, workers: int) -> dict:
    densities = (1.0, 1.1, 1.2, 1.4)
    scenarios = [paper_scenario(density=density, days=days, seed=seed,
                                maintenance=True)
                 for density in densities for seed in seeds]

    start = time.perf_counter()
    serial = SweepExecutor(max_workers=1).run(scenarios)
    serial_seconds = time.perf_counter() - start

    executor = SweepExecutor(max_workers=workers)
    start = time.perf_counter()
    parallel = executor.run(scenarios)
    parallel_seconds = time.perf_counter() - start

    identical = all(a.kpis == b.kpis and a.frames == b.frames
                    for a, b in zip(serial, parallel))
    effective_cores = os.cpu_count() or 1
    measured_ratio = round(serial_seconds / parallel_seconds, 2)
    cpu_bound = effective_cores < workers
    return {
        "densities": list(densities),
        "seeds": list(seeds),
        "days": days,
        "runs": len(scenarios),
        "serial_seconds": round(serial_seconds, 2),
        "parallel_seconds": round(parallel_seconds, 2),
        "workers": workers,
        "effective_cores": effective_cores,
        # With fewer cores than workers the wall ratio measures
        # scheduling overhead, not parallelism; null keeps the number
        # from being read as a regression. measured_ratio preserves the
        # raw observation either way.
        "speedup": None if cpu_bound else measured_ratio,
        "speedup_note": ("cpu-bound: %d core(s) < %d workers"
                         % (effective_cores, workers)) if cpu_bound
                        else "parallel speedup over serial",
        # The --check verdict, made explicit at measurement time so the
        # committed record says *itself* whether its ratio gates
        # anything; "skipped" = cpu-bound, the wall ratio is noise.
        "gate": "skipped" if cpu_bound else "active",
        "measured_ratio": measured_ratio,
        "mode": executor.last_mode,
        "results_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small configuration for CI smoke runs")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default=str(OUT_PATH))
    parser.add_argument("--check", action="store_true",
                        help="re-measure the kernel only and fail on a "
                             ">20%% regression vs the committed record")
    args = parser.parse_args(argv)

    if args.quick:
        kernel_events, run_days, sweep_days, seeds = 100_000, 0.25, 0.1, (42,)
        fleet_clusters = 10
    else:
        kernel_events, run_days, sweep_days, seeds = (
            400_000, 6.0, 0.5, (42, 43, 44))
        fleet_clusters = 100

    if args.check:
        return run_checks(args.out, kernel_events)

    print("kernel microbenchmark ...", flush=True)
    kernel = bench_kernel(kernel_events)
    print(f"  {kernel['events_per_sec']:,.0f} events/sec "
          f"(best of {kernel['passes']})")

    print(f"single {run_days:g}-day run ...", flush=True)
    single = bench_single_run(run_days)
    print(f"  {single['events_per_sec']:,.1f} events/sec "
          f"({single['seconds']}s)")

    print(f"4-density x {len(seeds)}-seed sweep, workers=1 vs "
          f"{args.workers} ...", flush=True)
    sweep = bench_sweep(sweep_days, seeds, args.workers)
    shown = sweep["speedup"] if sweep["speedup"] is not None \
        else f"{sweep['measured_ratio']} [{sweep['speedup_note']}]"
    print(f"  serial {sweep['serial_seconds']}s, parallel "
          f"{sweep['parallel_seconds']}s -> {shown} ({sweep['mode']})")

    print(f"{fleet_clusters}-cluster fleet, serial vs {args.workers} "
          "workers ...", flush=True)
    fleet = bench_fleet(fleet_clusters, node_count=4, days=0.05,
                        workers=args.workers)
    print(f"  {fleet['databases']} databases, serial "
          f"{fleet['serial_seconds']}s, sharded {fleet['sharded_seconds']}s, "
          f"digests_identical={fleet['digests_identical']}")

    print("whole-program lint, cold vs cached ...", flush=True)
    lint = bench_lint(repeats=1 if args.quick else 3)
    print(f"  cold {lint['cold_seconds']}s, cached "
          f"{lint['cached_seconds']}s -> {lint['cache_speedup']}x")

    print("perf tier (TL020..TL024), cold vs cached ...", flush=True)
    totoperf = bench_totoperf(repeats=1 if args.quick else 3)
    print(f"  cold {totoperf['cold_seconds']}s, cached "
          f"{totoperf['cached_seconds']}s -> {totoperf['cache_speedup']}x")

    print("numeric tier (TL030..TL034), cold vs cached ...", flush=True)
    totonum = bench_totonum(repeats=1 if args.quick else 3)
    print(f"  cold {totonum['cold_seconds']}s, cached "
          f"{totonum['cached_seconds']}s -> {totonum['cache_speedup']}x")

    payload = {
        "version": __version__,
        "quick": args.quick,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "kernel_events_per_sec": round(kernel["events_per_sec"]),
        "single_run": single,
        "sweep": sweep,
        "fleet": fleet,
        "lint": lint,
        "totoperf": totoperf,
        "totonum": totonum,
    }
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
