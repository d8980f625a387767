"""The 3D adoption roadmap of Figure 2 / Section 2.2.

The paper sketches the likely evolution of 3D processors:

* (a) today's planar design;
* (b) planar cores with a 3D-stacked L2 (density play: shorter wires to
  the cache, same cores) — the "3D CMP" class of prior work;
* (c) more stacked cache layers (bigger, still-close L2);
* (d) full 3D cores with Thermal Herding — this paper.

Only (d) touches the cores, so only (d) changes the clock frequency; (b)
and (c) improve L2 latency/capacity at the planar clock.  The experiment
quantifies each step's performance on a workload set, reproducing the
section's argument that stopping at stacked caches leaves most of the
benefit unrealized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.context import (
    ExperimentContext,
    ExperimentSettings,
    _all_configurations,
)
from repro.experiments.plan import Requirements, Resolved, run_section

#: Roadmap stages in presentation order.
STAGES = ("planar", "stacked-l2", "stacked-cache+", "3d-cores")


@dataclass
class RoadmapResult:
    """Per-stage geometric-mean performance."""

    #: stage -> benchmark -> instructions per ns
    ipns: Dict[str, Dict[str, float]]
    #: stage -> geometric-mean speedup over the planar stage
    speedup: Dict[str, float]

    def format(self) -> str:
        lines = [
            "Figure 2 roadmap: from planar to full 3D cores",
            f"{'stage':<16s} {'speedup':>8s}",
        ]
        for stage in STAGES:
            lines.append(f"{stage:<16s} {self.speedup[stage]:7.2f}x")
        lines.append(
            "stacked caches alone capture only part of the full-3D gain "
            "(Section 2.2's motivation)"
        )
        return "\n".join(lines)


def _geomean(values: List[float]) -> float:
    import math
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def requirements(
    settings: ExperimentSettings,
    benchmarks: Optional[List[str]] = None,
) -> Requirements:
    """Every benchmark at the four roadmap stages."""
    names = benchmarks or settings.benchmark_list()
    base = _all_configurations()["Base"]
    stages = {
        # Today's planar design: the labelled Base runs.
        "planar": "Base",
        # A 3D-stacked L2 die: the L2 moves closer (fewer cycles), cores
        # untouched.
        "stacked-l2": replace(base, name="stacked-l2", l2_latency=9),
        # Additional cache layers: closer still, and twice the capacity.
        "stacked-cache+": replace(
            base, name="stacked-cache+", l2_latency=8, l2_size=8 << 20
        ),
        # Full 3D cores (this paper): the labelled 3D runs.
        "3d-cores": "3D",
    }

    def render(results: Resolved) -> RoadmapResult:
        return _render(results.context, names, stages)

    return Requirements(
        render=render,
        runs=[(name, spec) for name in names for spec in stages.values()],
    )


def _render(context: ExperimentContext, names: List[str],
            stages: Dict[str, object]) -> RoadmapResult:
    ipns: Dict[str, Dict[str, float]] = {stage: {} for stage in STAGES}
    for name in names:
        for stage, spec in stages.items():
            result = (context.run(name, spec) if isinstance(spec, str)
                      else context.run_config(name, spec))
            ipns[stage][name] = result.ipns

    speedup = {
        stage: _geomean([
            ipns[stage][name] / ipns["planar"][name] for name in names
        ])
        for stage in STAGES
    }
    return RoadmapResult(ipns=ipns, speedup=speedup)


def run_roadmap(
    context: Optional[ExperimentContext] = None,
    benchmarks: Optional[List[str]] = None,
) -> RoadmapResult:
    """Evaluate the four roadmap stages."""
    return run_section(context, requirements, benchmarks)
