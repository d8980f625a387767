"""Command-line interface for the reproduction.

Usage::

    python -m repro table2
    python -m repro figure8  [--fast] [--jobs N]
    python -m repro figure9  [--fast] [--jobs N]
    python -m repro figure10 [--fast] [--jobs N]
    python -m repro density  [--fast] [--jobs N]
    python -m repro width    [--fast] [--jobs N]
    python -m repro dvfs     [--fast] [--jobs N]
    python -m repro roadmap  [--fast] [--jobs N]
    python -m repro leakage  [--fast] [--jobs N]
    python -m repro pairing  [--fast] [--jobs N]
    python -m repro sensitivity [--fast] [--jobs N]
    python -m repro transient   [--fast] [--jobs N]
    python -m repro interval    [--fast] [--jobs N]
    python -m repro stacking    [--fast] [--jobs N]
    python -m repro mechanisms
    python -m repro report   [--fast] [--jobs N] [-o report.md]
                             [--stats stats.json] [--log-json events.jsonl]
    python -m repro metrics  [--out metrics.json]
    python -m repro simulate BENCHMARK [--config 3D] [--length N]
    python -m repro trace BENCHMARK [--length N] [-o trace.npy]
    python -m repro cache [info|list|clear|prune]
    python -m repro list

``--fast`` runs a reduced benchmark set at shorter trace lengths.
``--jobs N`` (or ``REPRO_JOBS``) fans simulations out across N worker
processes; results are also persisted in ``.repro_cache/`` so warm
reruns simulate nothing (``REPRO_CACHE=0`` opts out).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Callable, Dict, NamedTuple, Optional, Sequence

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.report import generate_report, stats_payload

FAST_SETTINGS = ExperimentSettings(
    trace_length=8_000,
    warmup=2_500,
    benchmarks=("mpeg2", "mcf", "susan", "yacr2", "swim", "adpcm"),
    thermal_grid=48,
)


def _context(args) -> ExperimentContext:
    settings = FAST_SETTINGS if args.fast else ExperimentSettings()
    return ExperimentContext(settings, jobs=getattr(args, "jobs", None))


def _print_section(args) -> int:
    """Print the ``format()`` of the command's section run."""
    spec = COMMANDS[args.command]
    module, name = spec.run.split(":")
    run = getattr(importlib.import_module(f"repro.experiments.{module}"), name)
    print((run(_context(args)) if spec.fast else run()).format())
    return 0


def _cmd_cache(args) -> int:
    from repro.experiments.cache import ResultCache

    cache = ResultCache()
    if args.action == "clear":
        tmp_count = len(cache.tmp_files())
        removed = cache.clear()
        print(f"removed {removed} cached results and {tmp_count} temp "
              f"file(s) from {cache.root}")
    elif args.action == "prune":
        pruned = cache.prune()
        print(f"evicted {pruned['evicted']} entries over the size cap, "
              f"removed {pruned['stale_dirs']} stale schema dir(s), "
              f"{pruned['tmp_files']} temp file(s), "
              f"{pruned['claims']} abandoned claim(s)")
        print(f"cache size now {pruned['size_bytes'] / 1024:.1f} KiB "
              f"(index rebuilt: {pruned['index_bytes'] / 1024:.1f} KiB, "
              f"evictions_size={cache.evictions_size})")
    elif args.action == "list":
        entries = [*cache.entries(), *cache.entries("trace")]
        listed = 0
        for path in entries:
            try:
                size = path.stat().st_size
            except OSError:
                continue  # evicted by a concurrent prune mid-listing
            listed += 1
            print(f"{path.name.split('.')[0]}  {size / 1024:7.1f} KiB")
        print(f"{listed} entries, {cache.size_bytes() / 1024:.1f} KiB total")
    else:
        swept = cache.sweep_tmp()
        print(cache.describe())
        print(f"stale temp files swept: {swept}")
    return 0


def _cmd_report(args) -> int:
    import time

    context = _context(args)
    profiler = None
    if getattr(args, "profile", None):
        import cProfile

        profiler = cProfile.Profile()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    text = generate_report(context)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - start
    if profiler is not None:
        # Stats go to stderr so a report printed to stdout stays clean.
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(args.profile)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.stats or args.log_json:
        import json

        # Run telemetry plus the cache/index metrics section — see
        # repro.experiments.report.stats_payload.
        payload = stats_payload(context, wall_s, args.fast)
        if args.stats:
            with open(args.stats, "w", encoding="utf-8") as stream:
                json.dump(payload, stream, indent=2)
                stream.write("\n")
            print(f"wrote {args.stats}")
        if args.log_json:
            # One event (robustness incident or pool start) per line,
            # closed by a summary record — greppable in CI logs,
            # streamable into log pipelines.  Every line carries
            # ts/run_id/batch_id for correlation with external job-runner
            # logs.
            from datetime import datetime, timezone

            with open(args.log_json, "w", encoding="utf-8") as stream:
                for event in context.stats.events:
                    stream.write(json.dumps(event, sort_keys=True) + "\n")
                summary = {
                    "event": "summary",
                    "ts": datetime.now(timezone.utc).isoformat(
                        timespec="milliseconds"),
                    "batch_id": None,
                    **payload,
                }
                stream.write(json.dumps(summary, sort_keys=True) + "\n")
            print(f"wrote {args.log_json} "
                  f"({len(context.stats.events)} events)")
    return 0


def _cmd_metrics(args) -> int:
    import json

    from repro.experiments.metrics import metrics_snapshot

    text = json.dumps(metrics_snapshot(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    from repro.cpu.pipeline import simulate
    from repro.experiments.context import _all_configurations
    from repro.workloads.suite import generate

    configs = _all_configurations()
    if args.config not in configs:
        print(f"unknown config {args.config!r}; choose from {', '.join(configs)}",
              file=sys.stderr)
        return 2
    trace = generate(args.benchmark, length=args.length)
    result = simulate(trace, configs[args.config], warmup=args.length // 3)
    print(result.summary())
    for metric, value in sorted(result.herding.items()):
        if not metric.startswith("herded::"):
            print(f"  {metric}: {value:.3f}")
    return 0


def _cmd_trace(args) -> int:
    from repro.isa.compiled import meta_path_for, write_compiled
    from repro.workloads.suite import generate
    from repro.workloads.validation import TraceStats

    trace = generate(args.benchmark, length=args.length)
    output = args.output or f"{args.benchmark}.trace.npy"
    write_compiled(trace, output)
    print(f"wrote {output} and {meta_path_for(output)} "
          f"({len(trace)} instructions)")
    print(TraceStats.from_trace(trace).format())
    return 0


def _cmd_list(args) -> int:
    from repro.workloads.suite import BENCHMARKS
    for name, spec in BENCHMARKS.items():
        print(f"{name:<12s} {spec.benchmark_class.value}")
    return 0


def _report_arguments(report: argparse.ArgumentParser) -> None:
    report.add_argument("-o", "--output", help="write the report to a file")
    report.add_argument("--stats", metavar="FILE",
                        help="write wall-clock and simulation/thermal-solve "
                             "counters as JSON (for benchmark tracking)")
    report.add_argument("--log-json", metavar="FILE", dest="log_json",
                        help="write per-event telemetry (pool starts, retries, "
                             "pool restarts, serial fallbacks) as JSON lines")
    report.add_argument("--profile", nargs="?", const=30, default=None,
                        type=int, metavar="N",
                        help="run report generation under cProfile and print "
                             "the top N cumulative-time entries to stderr "
                             "(default 30)")


def _metrics_arguments(metrics: argparse.ArgumentParser) -> None:
    metrics.add_argument("--out", metavar="FILE",
                         help="write the JSON snapshot to a file instead "
                              "of stdout")


def _cache_arguments(cache: argparse.ArgumentParser) -> None:
    cache.add_argument("action", nargs="?", default="info",
                       choices=("info", "list", "clear", "prune"),
                       help="what to do (default: info); prune enforces "
                            "the REPRO_CACHE_MAX_MB size cap and sweeps "
                            "abandoned temp/claim files")


def _simulate_arguments(sim: argparse.ArgumentParser) -> None:
    sim.add_argument("benchmark")
    sim.add_argument("--config", default="3D")
    sim.add_argument("--length", type=int, default=20_000)


def _trace_arguments(trace: argparse.ArgumentParser) -> None:
    trace.add_argument("benchmark")
    trace.add_argument("--length", type=int, default=20_000)
    trace.add_argument("-o", "--output")


class Command(NamedTuple):
    """One subcommand: its help line, what it runs, whether it takes
    ``--fast``/``--jobs``, and a function adding its own arguments.

    A section command names its run function as ``"module:function"``
    in :mod:`repro.experiments`, imported when the command runs, and
    prints the ``format()`` of its result; the function takes the
    experiment context when the command takes ``--fast``/``--jobs``.
    Any other command names its own handler ``fn``.
    """

    help: str
    run: Optional[str] = None
    fast: bool = True
    arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None
    fn: Callable[[argparse.Namespace], int] = _print_section


#: Every subcommand, in the order ``repro --help`` lists them.
COMMANDS: Dict[str, Command] = {
    "table2": Command("Table 2: block latencies and frequencies",
                      "table2:run_table2", fast=False),
    "figure8": Command("Figure 8: performance of the five configs",
                       "figure8:run_figure8"),
    "figure9": Command("Figure 9: power of the three processors",
                       "figure9:run_figure9"),
    "figure10": Command("Figure 10: thermal maps", "figure10:run_figure10"),
    "density": Command("Section 5.3: iso-power density experiment",
                       "power_density:run_power_density"),
    "width": Command("Section 3.8: width prediction accuracy",
                     "width_stats:run_width_stats"),
    "dvfs": Command("frequency-for-temperature sweep", "dvfs:run_dvfs"),
    "roadmap": Command("Figure 2 roadmap design points", "roadmap:run_roadmap"),
    "leakage": Command("leakage-temperature feedback fixed point",
                       "leakage:run_leakage_feedback"),
    "pairing": Command("heterogeneous core pairing thermals",
                       "pairing:run_pairing"),
    "sensitivity": Command("packaging-parameter thermal sensitivity",
                           "sensitivity:run_sensitivity"),
    "transient": Command("transient step-response of both stacks",
                         "transient_response:run_transient_response"),
    "interval": Command(
        "interval power/thermal co-simulation with DTM throttling",
        "interval:run_interval"),
    "stacking": Command("die stacking-order ablation",
                        "stacking_order:run_stacking_order"),
    "mechanisms": Command("per-mechanism microbenchmark validation",
                          "mechanisms:run_mechanisms", fast=False),
    "report": Command("full markdown report of all experiments",
                      arguments=_report_arguments, fn=_cmd_report),
    "metrics": Command("machine-readable cache/index/solver metrics snapshot",
                       fast=False, arguments=_metrics_arguments,
                       fn=_cmd_metrics),
    "cache": Command("inspect or clear the on-disk result cache", fast=False,
                     arguments=_cache_arguments, fn=_cmd_cache),
    "simulate": Command("simulate one benchmark", fast=False,
                        arguments=_simulate_arguments, fn=_cmd_simulate),
    "trace": Command("generate and save a trace", fast=False,
                     arguments=_trace_arguments, fn=_cmd_trace),
    "list": Command("list the benchmark suite", fast=False, fn=_cmd_list),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser: every subcommand's, or only ``command``'s.

    A one-subcommand parser parses that subcommand's arguments to the
    same namespace as the full tree, and its usage line still lists
    every subcommand, so the errors it can raise read the same.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thermal Herding (HPCA 2007) reproduction toolkit",
    )
    if command is None:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    for name in names:
        spec = COMMANDS[name]
        p = sub.add_parser(name, help=spec.help)
        if spec.fast:
            p.add_argument("--fast", action="store_true",
                           help="reduced benchmark set / shorter traces")
            p.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                           help="simulation worker processes "
                                "(default: $REPRO_JOBS or the usable CPUs)")
        if spec.arguments is not None:
            spec.arguments(p)
        p.set_defaults(fn=spec.fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked subcommand's parser is built; anything else (no
    # command, -h, an unknown name) gets the full tree and its messages.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output was piped to a consumer that exited early (e.g. `| head`).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
