"""Command-line interface.

Exposes the benchmark framework the way an operator would use it::

    python -m repro density-study --days 2
    python -m repro quickstart --density 120 --hours 12
    python -m repro run --density 110 --hours 24 --chaos moderate
    python -m repro run --hours 6 --trace --metrics --profile --obs-dir out
    python -m repro train --out models.xml
    python -m repro validate
    python -m repro repeatability --repeats 3 --hours 18
    python -m repro incident --slo BC_Gen5_6 --growth-gb 1300 --density 140
    python -m repro lint --format json

Every subcommand prints the same plain-text tables the benchmark
harness emits, so CLI runs and ``pytest benchmarks/`` agree.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro import __version__
from repro.core.runner import run_scenario
from repro.core.scenario import ScriptedCreate
from repro.experiments.demographics import DemographicsStudy
from repro.experiments.density import DensityStudy
from repro.experiments.model_validation import ModelValidationStudy
from repro.experiments.nondeterminism import NondeterminismStudy
from repro.experiments.scenarios import (
    CHAOS_PROFILES,
    chaos_profile,
    paper_scenario,
    trained_artifacts,
)
from repro.core.model_xml import serialize_model_xml
from repro.fabric.cluster import BACKENDS
from repro.units import HOUR, format_duration


def _parse_densities(raw: str) -> tuple:
    densities = tuple(sorted(int(token) / 100.0
                             for token in raw.split(",")))
    if 1.0 not in densities:
        densities = tuple(sorted((1.0,) + densities))
    return densities


def _workers(args: argparse.Namespace) -> Optional[int]:
    """--workers: 1 = serial (default), 0 = one per CPU core, N = N."""
    return None if args.workers == 0 else args.workers


def _worker_count(token: str) -> int:
    count = int(token)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per CPU core), got {count}")
    return count


def _add_workers_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the sweep (1 = serial, 0 = one per "
             "CPU core); results are identical at any setting")


def _print_progress(progress) -> None:
    mode = "parallel" if progress.parallel else "serial"
    print(f"  [{progress.completed}/{progress.total}] "
          f"{progress.scenario_name} done ({mode})")


def cmd_density_study(args: argparse.Namespace) -> int:
    study = DensityStudy(densities=_parse_densities(args.densities),
                         days=args.days, seed=args.seed,
                         maintenance=not args.no_maintenance,
                         max_workers=_workers(args),
                         progress=_print_progress)
    print(f"running {len(study.densities)} experiments x "
          f"{args.days:g} simulated days (seed {args.seed}, "
          f"workers {args.workers or 'auto'}) ...")
    study.run()
    for section in (study.format_tables(), study.format_figure10(),
                    study.format_figure12(), study.format_figure14(),
                    study.format_figure2()):
        print()
        print(section)
    return 0


def cmd_quickstart(args: argparse.Namespace) -> int:
    scenario = paper_scenario(density=args.density / 100.0,
                              days=args.hours / 24.0,
                              seed=args.seed, maintenance=False)
    print(f"running {scenario.name} for "
          f"{format_duration(scenario.duration)} ...")
    result = run_scenario(scenario)
    kpis = result.kpis
    print(f"reserved cores : {kpis.final_reserved_cores:.0f} "
          f"({kpis.core_utilization:.1%})")
    print(f"disk usage     : {kpis.final_disk_gb:,.0f} GB "
          f"({kpis.disk_utilization:.1%})")
    print(f"redirects      : {kpis.creation_redirects}")
    print(f"failovers      : {kpis.failovers.count} "
          f"({kpis.failovers.total_cores_moved:.0f} cores)")
    print(f"adjusted rev.  : ${result.revenue.total_adjusted:,.2f} "
          f"(penalty ${result.revenue.total_penalty:,.2f})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario = paper_scenario(density=args.density / 100.0,
                              days=args.hours / 24.0,
                              seed=args.seed, maintenance=False,
                              backend=args.backend)
    if args.chaos:
        scenario = scenario.with_chaos(chaos_profile(args.chaos))
    obs_on = args.trace or args.metrics or args.profile
    if obs_on:
        import time
        from repro.obs import ObsConfig
        # The wall clock is injected as a function *reference*; the obs
        # package itself never reads time (rule TL014) and wall numbers
        # appear only in the human profile report, never in exports.
        scenario = scenario.with_obs(ObsConfig(
            trace=args.trace, metrics=args.metrics, profile=args.profile,
            wall_clock=time.perf_counter if args.profile else None))
    print(f"running {scenario.name} for "
          f"{format_duration(scenario.duration)} ...")
    detsan_exit = 0
    result = None
    if args.detsan:
        from repro.analysis.detsan import verify_run
        result, report = verify_run(scenario)
        print(report.format())
        detsan_exit = 0 if report.ok else 1
    if result is None:
        result = run_scenario(scenario)
    kpis = result.kpis
    print(f"reserved cores : {kpis.final_reserved_cores:.0f} "
          f"({kpis.core_utilization:.1%})")
    print(f"disk usage     : {kpis.final_disk_gb:,.0f} GB "
          f"({kpis.disk_utilization:.1%})")
    print(f"redirects      : {kpis.creation_redirects}")
    print(f"failovers      : {kpis.failovers.count} "
          f"({kpis.failovers.total_cores_moved:.0f} cores)")
    print(f"adjusted rev.  : ${result.revenue.total_adjusted:,.2f} "
          f"(penalty ${result.revenue.total_penalty:,.2f})")
    chaos = kpis.chaos
    if chaos is not None:
        print(f"faults injected: {chaos.faults_injected} "
              + " ".join(f"{kind}={count}"
                         for kind, count in chaos.injected_by_kind))
        print(f"chaos retries  : {chaos.retries} "
              f"(over {chaos.probes} backoff probes)")
        print(f"degraded       : {chaos.degraded_intervals} intervals "
              f"(naming={chaos.naming_unavailable_errors}, "
              f"rpc-lost={chaos.rpc_reports_lost}, "
              f"creates-timed-out={chaos.creates_timed_out}, "
              f"drops-deferred={chaos.drops_deferred}, "
              f"pm-stalled={chaos.pm_ticks_stalled})")
    if obs_on and result.obs is not None:
        import pathlib
        from repro.obs import (format_profile_report, git_describe,
                               write_obs_export)
        written = write_obs_export(result.obs, pathlib.Path(args.obs_dir),
                                   scenario, git=git_describe())
        for path in written:
            print(f"wrote {path}")
        if result.obs.profile_json is not None:
            print()
            print(format_profile_report(result.obs.profile_json,
                                        top=args.profile_top))
    return detsan_exit


def cmd_train(args: argparse.Namespace) -> int:
    artifacts = trained_artifacts(training_seed=args.seed,
                                  training_days=args.days,
                                  disk_corpus_size=args.corpus)
    xml = serialize_model_xml(artifacts.document)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(xml)
        print(f"wrote {len(xml):,} bytes of model XML to {args.out}")
    else:
        print(xml)
    for edition, dataset in artifacts.datasets.items():
        print(f"# {edition.value}: steady={dataset.steady_fraction:.2%} "
              f"initial_p={dataset.initial_probability:.3f} "
              f"rapid_p={dataset.rapid_probability:.3f}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    study = ModelValidationStudy(training_seed=args.seed)
    print(study.format_report())
    # Training-quality diagnostics for every event trace.
    from repro.models.diagnostics import diagnose_trace
    print("\ntraining diagnostics:")
    for (edition, kind), trace in study.artifacts.event_traces.items():
        diagnostics = diagnose_trace(trace)
        flag = "ok" if diagnostics.healthy() else "CHECK"
        print(f"  {edition.short_name} {kind:>6}: "
              f"{diagnostics.summary()}  [{flag}]")
    return 0


def cmd_demographics(args: argparse.Namespace) -> int:
    print(DemographicsStudy(seed=args.seed).format_report())
    return 0


def cmd_repeatability(args: argparse.Namespace) -> int:
    study = NondeterminismStudy(repeats=args.repeats, hours=args.hours,
                                seed=args.seed,
                                max_workers=_workers(args))
    print(f"running {args.repeats} identical {args.hours:g}h experiments "
          "(only the PLB seed differs) ...")
    print(study.format_report())
    return 0


def cmd_incident(args: argparse.Namespace) -> int:
    incident = ScriptedCreate(
        at_offset=int(args.at_hour * HOUR),
        slo_name=args.slo,
        initial_data_gb=args.data_gb,
        high_initial_growth=args.growth_gb > 0,
        initial_growth_total_gb=args.growth_gb,
        rapid_growth=args.rapid,
    )
    base = paper_scenario(density=args.density / 100.0, days=args.days,
                          seed=args.seed, maintenance=False)
    scenario = dataclasses.replace(base, name=base.name + "-incident",
                                   scripted_creates=(incident,))
    print(f"replaying {args.slo} (+{args.growth_gb:g} GB growth) at "
          f"h{args.at_hour:g}, {args.density}% density ...")
    result = run_scenario(scenario)
    admitted = [db for db in result.databases
                if db.initial_growth_total_gb == args.growth_gb
                and not db.from_bootstrap
                and db.slo.name == args.slo]
    print("incident " + ("ADMITTED" if admitted else "REDIRECTED"))
    kpis = result.kpis
    print(f"final disk {kpis.final_disk_gb:,.0f} GB "
          f"({kpis.disk_utilization:.1%}), "
          f"{kpis.failovers.count} failovers, "
          f"penalty ${result.revenue.total_penalty:,.2f}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint
    return run_lint(paths=args.paths, output_format=args.format,
                    rules=args.rules, list_rules=args.list_rules)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Toto cloud-service efficiency benchmark (SIGMOD'21 "
                    "reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    density = sub.add_parser("density-study",
                             help="the §5 density sweep")
    density.add_argument("--days", type=float, default=6.0)
    density.add_argument("--seed", type=int, default=42)
    density.add_argument("--densities", default="100,110,120,140",
                         help="comma-separated percentages")
    density.add_argument("--no-maintenance", action="store_true")
    _add_workers_flag(density)
    density.set_defaults(func=cmd_density_study)

    quick = sub.add_parser("quickstart", help="one short benchmark run")
    quick.add_argument("--density", type=float, default=110.0)
    quick.add_argument("--hours", type=float, default=12.0)
    quick.add_argument("--seed", type=int, default=42)
    quick.set_defaults(func=cmd_quickstart)

    run = sub.add_parser("run",
                         help="one benchmark run, optionally under a "
                              "fault-injection (chaos) profile")
    run.add_argument("--density", type=float, default=110.0)
    run.add_argument("--hours", type=float, default=24.0)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--chaos", default=None, metavar="PROFILE",
                     choices=sorted(CHAOS_PROFILES),
                     help="fault-injection profile: "
                          + ", ".join(sorted(CHAOS_PROFILES)))
    run.add_argument("--backend", default="annealing",
                     choices=sorted(BACKENDS),
                     help="orchestrator backend placing and balancing "
                          "replicas (default: %(default)s)")
    run.add_argument("--detsan", action="store_true",
                     help="run under the determinism sanitizer: execute "
                          "twice, cross-check the RNG/event ledgers and "
                          "the static substream registry (exit 1 on any "
                          "divergence or unknown draw site)")
    run.add_argument("--trace", action="store_true",
                     help="record a span per executed event (plus chaos "
                          "gate marks) to trace.jsonl")
    run.add_argument("--metrics", action="store_true",
                     help="stream the metric registry per telemetry hour "
                          "to metrics.jsonl and dump final values in "
                          "Prometheus textfile format to metrics.prom")
    run.add_argument("--profile", action="store_true",
                     help="per-event-label scheduling-delay histograms "
                          "and wall-time hot-spot report (profile.json)")
    run.add_argument("--obs-dir", default="obs-out", metavar="DIR",
                     help="directory for observability exports "
                          "(default: %(default)s); a manifest.json is "
                          "written alongside every export")
    run.add_argument("--profile-top", type=int, default=15, metavar="N",
                     help="rows in the printed profile report "
                          "(default: %(default)s)")
    run.set_defaults(func=cmd_run)

    train = sub.add_parser("train",
                           help="train models, emit the XML blob")
    train.add_argument("--seed", type=int, default=20210620)
    train.add_argument("--days", type=int, default=14)
    train.add_argument("--corpus", type=int, default=1200)
    train.add_argument("--out", default=None,
                       help="file to write the XML to (default: stdout)")
    train.set_defaults(func=cmd_train)

    validate = sub.add_parser("validate",
                              help="Figures 7-9 model validation")
    validate.add_argument("--seed", type=int, default=20210620)
    validate.set_defaults(func=cmd_validate)

    demo = sub.add_parser("demographics",
                          help="Figures 3a/3b/6 telemetry views")
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(func=cmd_demographics)

    repeat = sub.add_parser("repeatability",
                            help="the §5.3.4 PLB non-determinism study")
    repeat.add_argument("--repeats", type=int, default=3)
    repeat.add_argument("--hours", type=float, default=18.0)
    repeat.add_argument("--seed", type=int, default=42)
    _add_workers_flag(repeat)
    repeat.set_defaults(func=cmd_repeatability)

    incident = sub.add_parser("incident",
                              help="replay a production incident")
    incident.add_argument("--slo", default="BC_Gen5_6")
    incident.add_argument("--data-gb", type=float, default=50.0)
    incident.add_argument("--growth-gb", type=float, default=1300.0)
    incident.add_argument("--at-hour", type=float, default=30.0)
    incident.add_argument("--density", type=float, default=140.0)
    incident.add_argument("--days", type=float, default=2.0)
    incident.add_argument("--seed", type=int, default=42)
    incident.add_argument("--rapid", action="store_true")
    incident.set_defaults(func=cmd_incident)

    from repro.analysis.cli import add_lint_arguments
    lint = sub.add_parser(
        "lint",
        help="static analysis, every rule a hard gate "
             "(TL001..TL014, TL022, TL034)")
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
