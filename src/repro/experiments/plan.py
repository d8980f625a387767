"""One report plan: sections declare what they need, resolved once.

The paper's methodology is a fixed pipeline — simulate every benchmark
and configuration, derive power, then solve the thermals — and the
report runs the same way.  Each section module has a pure
``requirements(settings, ...)`` that returns a :class:`Requirements`:
the simulations the section reads, the interval power traces it steps,
its pool-side thermal work and its parent-side steady solves, plus the
``render`` step that builds its result from them.  :func:`run_plan`
resolves any list of sections in one order:

1. every section's simulations in one :meth:`ExperimentContext.prefetch`
   (one resolver pass, so one simulation pool);
2. every interval power trace, in the parent;
3. all pool-side thermal work — transient groups and steady geometries
   that only pool workers solve — submitted in one
   :meth:`ExperimentContext.start_thermal`, whose pool forks before the
   parent has factorized anything;
4. the parent's own steady solves, section by section, while that pool
   runs;
5. every ``render``, in section order; the first section that reads
   pool results collects the dispatch there (``ThermalRun.result``),
   and a section that raises cancels it, killing its workers and
   releasing its cache claims.

The report and every section subcommand of the CLI go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.context import (
    ExperimentContext,
    SimSpec,
    TransientRequest,
)
from repro.thermal.solver import ThermalSolver

#: An interval power trace: (benchmark, configuration label, interval
#: instructions).
IntervalItem = Tuple[str, str, int]


@dataclass
class PoolWork:
    """A section's pool-side thermal work."""

    #: steady geometry groups, as for :meth:`ExperimentContext.solve_thermal_groups`
    groups: List[Tuple[ThermalSolver, List]] = field(default_factory=list)
    #: transient runs, as for :meth:`ExperimentContext.transient_many`
    requests: List[TransientRequest] = field(default_factory=list)


@dataclass
class Resolved:
    """What a section's ``render`` reads.

    ``context`` serves the resolved runs (:meth:`ExperimentContext.run`,
    :meth:`~ExperimentContext.run_config`) and the power model,
    ``traces`` the interval power traces, and ``solved`` the value of
    the section's ``solve`` hook.
    """

    context: ExperimentContext
    traces: Dict[IntervalItem, object]
    solved: object
    _pool: Callable[[], Tuple[List, List]]

    def pool(self) -> Tuple[List, List]:
        """The section's pool results: steady results per group and
        transient outcomes per request (collects the pool once)."""
        return self._pool()


@dataclass
class Requirements:
    """What one section needs before it renders, and how it renders."""

    #: builds the section's result from its :class:`Resolved` inputs
    render: Callable[[Resolved], object]
    #: simulations: (benchmark, configuration label or CPUConfig)
    runs: Sequence[Tuple[str, SimSpec]] = ()
    #: interval power traces the ``pool`` hook reads
    intervals: Sequence[IntervalItem] = ()
    #: pool-side thermal work, from the resolved context and traces
    pool: Optional[Callable[[ExperimentContext, Dict], PoolWork]] = None
    #: the parent's steady solves; its value becomes ``Resolved.solved``
    solve: Optional[Callable[[ExperimentContext], object]] = None


def grid(labels: Sequence[str], benchmarks: Sequence[str]) -> List[Tuple[str, str]]:
    """Every (benchmark, configuration label) pair, benchmark-major."""
    return [(benchmark, label) for benchmark in benchmarks for label in labels]


def run_plan(context: ExperimentContext,
             sections: Sequence[Requirements]) -> List[object]:
    """Resolve ``sections`` together and return their rendered results."""
    from repro.experiments.interval import extract_interval_trace

    context.prefetch(item for section in sections for item in section.runs)
    traces: Dict[IntervalItem, object] = {}
    for section in sections:
        for item in section.intervals:
            if item not in traces:
                traces[item] = extract_interval_trace(context, *item)
    works = [section.pool(context, traces) if section.pool else PoolWork()
             for section in sections]
    started = context.start_thermal(
        [group for work in works for group in work.groups],
        [request for work in works for request in work.requests],
    )
    try:
        solved = [section.solve(context) if section.solve else None
                  for section in sections]
        rendered = []
        groups = requests = 0
        for section, work, value in zip(sections, works, solved):
            def pool(g=groups, r=requests, work=work):
                steady, transient = started.result()
                return (steady[g:g + len(work.groups)],
                        transient[r:r + len(work.requests)])

            rendered.append(section.render(Resolved(context, traces, value,
                                                    pool)))
            groups += len(work.groups)
            requests += len(work.requests)
        started.result()
        return rendered
    finally:
        started.cancel()


def run_section(context: Optional[ExperimentContext], requirements,
                *args, **kwargs):
    """One section through the plan: :func:`run_plan` of
    ``requirements(context.settings, *args, **kwargs)`` alone, on a
    default context when ``context`` is None."""
    context = context or ExperimentContext()
    return run_plan(context, [requirements(context.settings, *args,
                                           **kwargs)])[0]
