"""Figure 8: IPC, instructions per ns, and relative speedup.

The paper reports, per benchmark class, the geometric-mean IPC of the
Base / TH / Pipe / Fast / 3D configurations (8a), the corresponding
instructions-per-nanosecond (8b), and the speedup of the 3D processor
over the baseline (8c), plus the mean-of-means across classes.  Headline
numbers: mean speedup 1.47, minimum 1.07 (mcf), maximum 1.77 (patricia);
every class except SPECfp2000 lands between +49.4 % and +51.5 %; SPECfp
gets +29.5 % because it is bound by unimproved DRAM latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.plan import Requirements, Resolved, grid, run_section
from repro.workloads.parameters import BenchmarkClass
from repro.workloads.suite import BENCHMARKS

#: The configurations shown in Figure 8, in presentation order.
FIGURE8_CONFIGS = ("Base", "TH", "Pipe", "Fast", "3D")

PAPER_MEAN_SPEEDUP = 1.47


def _geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Figure8Result:
    """Per-benchmark and per-class performance metrics."""

    #: benchmark -> config label -> IPC
    ipc: Dict[str, Dict[str, float]]
    #: benchmark -> config label -> instructions per ns
    ipns: Dict[str, Dict[str, float]]
    #: benchmark -> 3D speedup over Base (by IPns)
    speedup: Dict[str, float]
    #: class name -> config label -> geometric mean IPC
    class_ipc: Dict[str, Dict[str, float]]
    #: class name -> geometric mean speedup
    class_speedup: Dict[str, float]

    @property
    def mean_of_means_speedup(self) -> float:
        return _geomean(list(self.class_speedup.values()))

    @property
    def min_speedup(self) -> float:
        return min(self.speedup.values())

    @property
    def max_speedup(self) -> float:
        return max(self.speedup.values())

    def config_mean_ipc(self, config: str) -> float:
        """Mean-of-means IPC for one configuration."""
        return _geomean([c[config] for c in self.class_ipc.values()])

    def format(self) -> str:
        lines = ["Figure 8: performance of Base / TH / Pipe / Fast / 3D"]
        header = f"{'class':<14s}" + "".join(f"{c:>8s}" for c in FIGURE8_CONFIGS) + f"{'speedup':>9s}"
        lines.append("(a) geometric mean IPC per class")
        lines.append(header)
        for klass, per_config in self.class_ipc.items():
            row = f"{klass:<14s}" + "".join(f"{per_config[c]:8.2f}" for c in FIGURE8_CONFIGS)
            lines.append(row + f"{self.class_speedup[klass]:9.2f}")
        mom = f"{'M-of-M':<14s}" + "".join(
            f"{self.config_mean_ipc(c):8.2f}" for c in FIGURE8_CONFIGS
        )
        lines.append(mom + f"{self.mean_of_means_speedup:9.2f}")
        lines.append("(c) speedup extremes")
        lines.append(
            f"  min {self.min_speedup:.2f} "
            f"({min(self.speedup, key=self.speedup.get)}); paper 1.07 (mcf)"
        )
        lines.append(
            f"  max {self.max_speedup:.2f} "
            f"({max(self.speedup, key=self.speedup.get)}); paper 1.77 (patricia)"
        )
        lines.append(
            f"  mean {self.mean_of_means_speedup:.2f}; paper {PAPER_MEAN_SPEEDUP}"
        )
        return "\n".join(lines)


def requirements(settings: ExperimentSettings) -> Requirements:
    """Every benchmark under the five configurations."""
    return Requirements(render=render,
                        runs=grid(FIGURE8_CONFIGS, settings.benchmark_list()))


def render(results: Resolved) -> Figure8Result:
    context = results.context
    benchmarks = context.settings.benchmark_list()
    ipc: Dict[str, Dict[str, float]] = {}
    ipns: Dict[str, Dict[str, float]] = {}
    speedup: Dict[str, float] = {}
    for benchmark in benchmarks:
        ipc[benchmark] = {}
        ipns[benchmark] = {}
        for config in FIGURE8_CONFIGS:
            result = context.run(benchmark, config)
            ipc[benchmark][config] = result.ipc
            ipns[benchmark][config] = result.ipns
        speedup[benchmark] = ipns[benchmark]["3D"] / ipns[benchmark]["Base"]

    class_ipc: Dict[str, Dict[str, float]] = {}
    class_speedup: Dict[str, float] = {}
    for klass in BenchmarkClass:
        members = [
            b for b in benchmarks
            if BENCHMARKS[b].benchmark_class is klass
        ]
        if not members:
            continue
        class_ipc[klass.value] = {
            config: _geomean([ipc[b][config] for b in members])
            for config in FIGURE8_CONFIGS
        }
        class_speedup[klass.value] = _geomean([speedup[b] for b in members])

    return Figure8Result(
        ipc=ipc,
        ipns=ipns,
        speedup=speedup,
        class_ipc=class_ipc,
        class_speedup=class_speedup,
    )


def run_figure8(context: Optional[ExperimentContext] = None) -> Figure8Result:
    """Simulate every benchmark under the five configurations."""
    return run_section(context, requirements)
