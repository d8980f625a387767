"""Section 3.8's width prediction accuracy and herding effectiveness.

The paper reports that 97 % of all fetched instructions have their widths
correctly predicted.  Control-flow and FP instructions carry no width
prediction, so the all-instruction metric counts them as trivially
correct; the per-predicted-instruction accuracy is also reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.plan import Requirements, Resolved, grid, run_section

PAPER_WIDTH_ACCURACY = 0.97


@dataclass
class WidthStatsResult:
    """Width prediction and herding metrics across the suite."""

    #: benchmark -> accuracy over all fetched instructions
    all_inst_accuracy: Dict[str, float]
    #: benchmark -> accuracy over width-predicted instructions only
    predicted_accuracy: Dict[str, float]
    #: benchmark -> herding metric name -> value
    herding: Dict[str, Dict[str, float]]

    @property
    def mean_all_inst_accuracy(self) -> float:
        values = list(self.all_inst_accuracy.values())
        return sum(values) / len(values) if values else 0.0

    def mean_herding(self, metric: str) -> float:
        values = [m[metric] for m in self.herding.values() if metric in m]
        return sum(values) / len(values) if values else 0.0

    def format(self) -> str:
        lines = [
            "Width prediction accuracy (Section 3.8; paper: 97% of fetched)",
            f"{'benchmark':<10s} {'all-inst':>9s} {'predicted':>10s} "
            f"{'dcache':>8s} {'pam':>6s} {'sched':>7s}",
        ]
        for name in sorted(self.all_inst_accuracy):
            herd = self.herding[name]
            lines.append(
                f"{name:<10s} {self.all_inst_accuracy[name]:9.1%} "
                f"{self.predicted_accuracy[name]:10.1%} "
                f"{herd.get('dcache_herded_loads', 0.0):8.1%} "
                f"{herd.get('pam_herded', 0.0):6.1%} "
                f"{herd.get('scheduler_dies_per_broadcast', 0.0):7.2f}"
            )
        lines.append(
            f"mean all-instruction accuracy: {self.mean_all_inst_accuracy:.1%} "
            f"(paper {PAPER_WIDTH_ACCURACY:.0%})"
        )
        return "\n".join(lines)


def requirements(settings: ExperimentSettings) -> Requirements:
    """The TH configuration across the suite."""
    return Requirements(render=render,
                        runs=grid(("TH",), settings.benchmark_list()))


def render(results: Resolved) -> WidthStatsResult:
    context = results.context
    all_acc: Dict[str, float] = {}
    pred_acc: Dict[str, float] = {}
    herding: Dict[str, Dict[str, float]] = {}
    for benchmark in context.settings.benchmark_list():
        result = context.run(benchmark, "TH")
        stats = result.width_stats
        assert stats is not None, "TH runs must produce width stats"
        total = result.instructions
        unpredicted = total - stats.predictions
        all_acc[benchmark] = (
            (stats.correct + unpredicted) / total if total else 0.0
        )
        pred_acc[benchmark] = stats.accuracy
        herding[benchmark] = dict(result.herding)
    return WidthStatsResult(
        all_inst_accuracy=all_acc,
        predicted_accuracy=pred_acc,
        herding=herding,
    )


def run_width_stats(context: Optional[ExperimentContext] = None) -> WidthStatsResult:
    """Run the TH configuration across the suite and collect metrics."""
    return run_section(context, requirements)
