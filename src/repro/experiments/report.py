"""Full markdown report: every experiment with paper-vs-measured columns.

This is the machinery behind ``python -m repro report`` and the
EXPERIMENTS.md regeneration.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.context import ExperimentContext
from repro.experiments.dvfs import requirements as dvfs_requirements
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import requirements as figure8_requirements
from repro.experiments.figure9 import requirements as figure9_requirements
from repro.experiments.figure10 import requirements as figure10_requirements
from repro.experiments.interval import requirements as interval_requirements
from repro.experiments.leakage import requirements as leakage_requirements
from repro.experiments.pairing import requirements as pairing_requirements
from repro.experiments.plan import Requirements, run_plan
from repro.experiments.power_density import requirements as density_requirements
from repro.experiments.roadmap import requirements as roadmap_requirements
from repro.experiments.sensitivity import requirements as sensitivity_requirements
from repro.experiments.stacking_order import requirements as stacking_requirements
from repro.experiments.table2 import run_table2
from repro.experiments.width_stats import requirements as width_requirements

def stats_payload(context: ExperimentContext, wall_s: float,
                  fast: bool) -> dict:
    """The ``--stats``/``--log-json`` telemetry payload for one report run.

    Run telemetry (:meth:`ContextStats.as_dict`, which includes
    ``stage_seconds`` and the ``FACTORIZATION_STATS`` snapshot) at the
    top level — the layout CI's ``BENCH_report.json`` assembles — plus
    the cache/index metrics section under ``"metrics"`` so a single
    file answers both "what ran" and "what the cache did".
    """
    from repro.experiments.metrics import cache_metrics

    return {
        "wall_s": round(wall_s, 3),
        "jobs": context.jobs,
        "fast": bool(fast),
        **context.stats.as_dict(),
        "metrics": cache_metrics(context.cache),
    }


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def _comparison_table(rows) -> str:
    lines = [
        "| quantity | paper | this repo |",
        "|---|---|---|",
    ]
    for quantity, paper, measured in rows:
        lines.append(f"| {quantity} | {paper} | {measured} |")
    return "\n".join(lines)


def generate_report(context: Optional[ExperimentContext] = None) -> str:
    """Run everything and render one markdown document."""
    context = context or ExperimentContext()
    settings = context.settings
    # One plan for every section (see repro.experiments.plan): all
    # simulations in one pool, then every pool-side thermal solve forked
    # before the parent factorizes, then the parent's own solves and the
    # renders in section order.
    (table2, figure8, figure9, figure10, density, width, dvfs, roadmap,
     sensitivity, stacking, leakage, pairing, interval, figure7) = run_plan(
        context, [
            Requirements(render=lambda results: run_table2()),
            figure8_requirements(settings),
            figure9_requirements(settings),
            figure10_requirements(settings),
            density_requirements(settings),
            width_requirements(settings),
            dvfs_requirements(settings),
            roadmap_requirements(settings),
            sensitivity_requirements(settings),
            stacking_requirements(settings),
            leakage_requirements(settings),
            pairing_requirements(settings),
            interval_requirements(settings),
            Requirements(render=lambda results: run_figure7(results.context)),
        ])

    headline = _comparison_table([
        ("clock frequency gain", "+47.9% (2.66 -> 3.93 GHz)",
         f"+{table2.frequency_gain:.1%} ({table2.frequencies.f2d_ghz:.2f} -> "
         f"{table2.frequencies.f3d_ghz:.2f} GHz)"),
        ("wakeup-select loop", "-32%", f"-{table2.wakeup_improvement:.1%}"),
        ("ALU+bypass loop", "-36%", f"-{table2.alu_bypass_improvement:.1%}"),
        ("mean performance gain", "+47.0% (min 7%, max 77%)",
         f"+{figure8.mean_of_means_speedup - 1:.1%} "
         f"(min {figure8.min_speedup - 1:.0%}, max {figure8.max_speedup - 1:.0%})"),
        ("peak-power app chip power", "90 W planar",
         f"{figure9.base_chip_watts:.1f} W"),
        ("3D (no herding) power", "72.7 W (-19%)",
         f"{figure9.no_herding_chip_watts:.1f} W (-{figure9.no_herding_saving:.1%})"),
        ("3D Thermal Herding power", "64.3 W (-29%)",
         f"{figure9.herding_chip_watts:.1f} W (-{figure9.herding_saving:.1%})"),
        ("per-app TH saving range", "15% .. 30%",
         f"{figure9.min_saving[1]:.1%} .. {figure9.max_saving[1]:.1%}"),
        ("planar worst-case peak", "360 K (scheduler)",
         f"{figure10.peak_2d:.0f} K "
         f"({figure10.worst_case['Base'][1].hottest_block()[0].split('.')[-1]})"),
        ("3D temp increase, no herding", "+17 K", f"+{figure10.delta_no_herding:.0f} K"),
        ("3D temp increase, herding", "+12 K", f"+{figure10.delta_herding:.0f} K"),
        ("herding's reduction of the increase", "29%",
         f"{figure10.herding_delta_reduction:.0%}"),
        ("iso-power 4x-density increase", "+58 K", f"+{density.delta_k:.0f} K"),
        ("width prediction accuracy", "97% of fetched",
         f"{width.mean_all_inst_accuracy:.1%}"),
    ])

    parts = [
        "# Thermal Herding reproduction — experiment report",
        "",
        f"workloads: {len(context.settings.benchmark_list())} benchmarks, "
        f"{context.settings.trace_length} instructions each "
        f"({context.settings.warmup} warmup)",
        "",
        "## Headline comparison",
        "",
        headline,
        "",
        _section("Table 2 — block latencies and frequencies", table2.format()),
        _section("Figure 7 — floorplans", figure7.format()),
        _section("Figure 8 — performance", figure8.format()),
        _section("Figure 9 — power", figure9.format()),
        _section("Figure 10 — thermals", figure10.format()),
        _section("Section 5.3 — iso-power density", density.format()),
        _section("Section 3.8 — width prediction", width.format()),
        _section("Extension — DVFS (performance for temperature)", dvfs.format()),
        _section("Extension — Figure 2 roadmap", roadmap.format()),
        _section("Extension — thermal sensitivity", sensitivity.format()),
        _section("Extension — stacking-order ablation", stacking.format()),
        _section("Extension — leakage-temperature feedback", leakage.format()),
        _section("Extension — heterogeneous core pairing", pairing.format()),
        _section("Extension — interval power/thermal co-simulation",
                 interval.format()),
    ]
    return "\n".join(parts)
