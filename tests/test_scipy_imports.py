"""Each run loads only the code it executes.

``scipy`` loads only where thermal systems are assembled or factorized.
Importing any ``repro`` module must not import scipy: the solver and the
transient solver import ``scipy.sparse`` inside the functions that build
and factorize matrices, and a parent imports it just before it forks a
pool for thermal or transient work, so the workers inherit it.  A warm
run that reads every thermal result from the cache, and a pool that only
simulates, therefore never load it.

The simulation stack (timing core, trace emulator, trace builder) loads
only where a trace is simulated or generated, by the same rule: the
parent imports the timing core just before it forks a simulation pool.
A warm run that reads every result from the cache never loads it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules that only simulating or generating a trace executes.
SIMULATION_STACK = (
    "repro.cpu.pipeline",
    "repro.cpu.predecode",
    "repro.cpu.wavefront",
    "repro.workloads.emulator",
    "repro.workloads.program",
    "repro.isa.builder",
)

_NO_SIMULATION_STACK = f"""
loaded = sorted(set({SIMULATION_STACK!r}) & set(sys.modules))
assert loaded == [], f"loaded {{loaded}}"
"""


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_scope_scipy_imports(body):
    """Line numbers of scipy imports that run when the module is imported
    (function bodies and ``if TYPE_CHECKING:`` blocks do not)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "scipy" for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "scipy":
                yield node.lineno
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _module_scope_scipy_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_scope_scipy_imports(getattr(node, field, []))


def test_no_module_scope_scipy_import():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for line in _module_scope_scipy_imports(ast.parse(path.read_text()).body)
    ]
    assert offenders == []


def test_checker_sees_nested_module_scope_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from scipy.sparse import csc_matrix\n"
        "def f():\n    import scipy\n"
        "try:\n    import scipy.sparse as sp\nexcept ImportError:\n    pass\n"
        "class C:\n    from scipy import linalg\n"
    )
    assert list(_module_scope_scipy_imports(tree.body)) == [7, 11]


def _run(code: str, cache_dir: Path) -> None:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


_LOOKUPS = """
import sys
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.interval import run_interval

context = ExperimentContext(ExperimentSettings(
    trace_length=3_000, warmup=800, benchmarks=("mpeg2",), thermal_grid=16))
context.thermal("mpeg2", "Base")
run_interval(context, interval_insts=700, dt_s=20e-3, duration_s=0.2,
             configs=("Base", "TH"))
"""


def test_warm_thermal_and_transient_lookups_leave_scipy_unloaded(tmp_path):
    _run(_LOOKUPS + "assert 'scipy' in sys.modules\n", tmp_path)
    _run(_LOOKUPS + "assert 'scipy' not in sys.modules, 'loaded when warm'\n",
         tmp_path)


def test_warm_lookups_leave_the_simulation_stack_unloaded(tmp_path):
    _run(_LOOKUPS + "assert 'repro.cpu.pipeline' in sys.modules\n", tmp_path)
    _run(_LOOKUPS + _NO_SIMULATION_STACK, tmp_path)


@pytest.mark.parametrize("code", [
    "import repro.cli\n"
    "from repro.experiments.context import ExperimentContext\n"
    "ExperimentContext(repro.cli.FAST_SETTINGS)\n",
    "import repro.experiments.sensitivity\n",
], ids=["cli-and-context", "sensitivity"])
def test_set_up_leaves_the_simulation_stack_unloaded(tmp_path, code):
    _run("import sys\n" + code + _NO_SIMULATION_STACK, tmp_path)


_SIMULATION_POOL = """
import sys
from repro.experiments.context import ExperimentContext, ExperimentSettings

context = ExperimentContext(ExperimentSettings(
    trace_length=3_000, warmup=800, benchmarks=("mpeg2",)), jobs=2,
    cache=None)
context.prefetch([("mpeg2", "Base"), ("mpeg2", "3D")])
assert [e["kind"] for e in context.stats.events
        if e["event"] == "pool_start"] == ["simulation"]
assert 'scipy' not in sys.modules, 'a simulation pool loaded scipy'
"""


def test_simulation_pool_leaves_scipy_unloaded(tmp_path):
    _run(_SIMULATION_POOL, tmp_path)


def _probe_workers(tmp_path, script: str) -> list:
    """Run ``script`` with ``PROBES`` naming a directory its pool tasks
    write to, one line per task; return the lines."""
    probes = tmp_path / "probes"
    probes.mkdir()
    _run(f"PROBES = {str(probes)!r}\n" + script, tmp_path)
    return [line for path in probes.iterdir()
            for line in path.read_text().split()]


_SIMULATION_PROBE = """
import os, sys
from repro.experiments import context as context_module
from repro.experiments.context import ExperimentContext, ExperimentSettings

simulate_task = context_module._simulate_task


def probed(*args):
    # Runs in a worker: was the timing core there before the task ran?
    loaded = "repro.cpu.pipeline" in sys.modules
    with open(os.path.join(PROBES, str(os.getpid())), "a") as stream:
        stream.write(f"{loaded}\\n")
    return simulate_task(*args)


context_module._simulate_task = probed
context = ExperimentContext(ExperimentSettings(
    trace_length=3_000, warmup=800, benchmarks=("mpeg2",)), jobs=2,
    cache=None)
context.prefetch([("mpeg2", "Base"), ("mpeg2", "3D")])
assert context.stats.simulated == 2
"""


def test_simulation_pool_workers_inherit_the_timing_core(tmp_path):
    seen = _probe_workers(tmp_path, _SIMULATION_PROBE)
    assert seen == ["True", "True"]


_THERMAL_POOL = """
import os, sys
from repro.experiments import supervised
from repro.experiments.context import ExperimentContext
from repro.floorplan import planar_floorplan
from repro.thermal.power_map import rasterize
from repro.thermal.solver import FACTORIZATION_STATS, ThermalSolver
from repro.thermal.stack import planar_stack

solve_group_task = supervised.solve_group_task


def probed(*args):
    # Runs in a worker: were scipy and the entry points there before the
    # task imported them?
    loaded = all(name in sys.modules for name in
                 ("scipy.sparse.linalg", "repro.experiments.supervised"))
    with open(os.path.join(PROBES, str(os.getpid())), "a") as stream:
        stream.write(f"{loaded}\\n")
    return solve_group_task(*args)


supervised.solve_group_task = probed
plan = planar_floorplan()
watts = {(block.name, block.die): 1.0 for block in plan.blocks}
groups = []
for grid in (12, 14, 16):
    solver = ThermalSolver(planar_stack(), plan, grid, grid)
    ny, nx = solver.chip_grid_shape()
    groups.append((solver, [rasterize(plan, watts, nx, ny)]))
context = ExperimentContext(jobs=2, cache=None)
context.solve_thermal_groups(groups)
assert context.stats.thermal_worker_groups == 3
assert FACTORIZATION_STATS.factorizations == 0  # the parent solved nothing
"""


def test_thermal_pool_workers_inherit_scipy(tmp_path):
    seen = _probe_workers(tmp_path, _THERMAL_POOL)
    assert len(seen) == 3
    assert set(seen) == {"True"}
