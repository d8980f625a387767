"""The fault-tolerant pool executor on its own, with no simulation.

The executor runs plain picklable tasks: results come back in
submission order, a task that raises is retried on the live pool, one
that keeps raising falls back to its serial form, and a dispatch that
cannot use two workers starts no pool.  It must not know what its tasks
compute, so it imports nothing from the simulation, thermal, power,
workload, floorplan, cache or context modules.
"""

from __future__ import annotations

import ast
import os
import time
from pathlib import Path

from repro.experiments import executor as executor_module
from repro.experiments.context import ContextStats
from repro.experiments.executor import Executor, PoolTask

FORBIDDEN = ("repro.cpu", "repro.thermal", "repro.power", "repro.workloads",
             "repro.floorplan", "repro.experiments.cache",
             "repro.experiments.context")


def _square(x: int, delay_s: float = 0.0) -> int:
    time.sleep(delay_s)
    return x * x


def _fail_once(token: str, x: int) -> int:
    """Raises on the call that removes ``token``, squares on every other."""
    try:
        os.unlink(token)
    except FileNotFoundError:
        return x * x
    raise RuntimeError("planted failure")


def _always_fail(x: int) -> int:
    raise RuntimeError(f"task {x} always fails")


def _task(fn, *args, serial=None, attempts: int = 3) -> PoolTask:
    return PoolTask(fn=fn, args=args,
                    serial=serial or (lambda: fn(*args)),
                    detail={"task": args[-1]}, max_attempts=attempts)


def _events(stats, name):
    return [event for event in stats.events if event["event"] == name]


def test_executor_imports_no_domain_module():
    tree = ast.parse(Path(executor_module.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported
    for name in imported:
        assert not name.startswith(FORBIDDEN), name


def test_results_come_back_in_submission_order():
    stats = ContextStats()
    executor = Executor(stats, 2, fork_detail=lambda: {"marker": 7})
    # The first task finishes last, so completion order differs.
    tasks = [_task(_square, x, 0.3 if x == 1 else 0.0) for x in range(1, 6)]
    assert executor.start(tasks, "plain").result() == [1, 4, 9, 16, 25]
    starts = _events(stats, "pool_start")
    assert [(e["kind"], e["workers"], e["tasks"], e["marker"])
            for e in starts] == [("plain", 2, 5, 7)]
    assert stats.tasks_run == 5
    assert stats.task_retries == stats.serial_fallbacks == 0


def test_task_raising_once_is_retried_on_the_pool(tmp_path):
    token = tmp_path / "raise-once"
    token.touch()
    stats = ContextStats()
    tasks = [_task(_fail_once, str(token), 3), _task(_square, 4)]
    assert Executor(stats, 2).start(tasks, "plain").result() == [9, 16]
    assert not token.exists()
    assert stats.task_retries == 1
    assert stats.serial_fallbacks == 0
    assert [e["attempt"] for e in _events(stats, "task_error")] == [1]


def test_task_always_raising_falls_back_to_serial():
    stats = ContextStats()
    tasks = [_task(_always_fail, 3, serial=lambda: -1, attempts=2),
             _task(_square, 4)]
    assert Executor(stats, 2).start(tasks, "plain").result() == [-1, 16]
    assert stats.task_retries == 1
    assert stats.serial_fallbacks == 1
    assert [e["attempts"] for e in _events(stats, "serial_fallback")] == [2]
    assert stats.pool_restarts == 0


def test_dispatch_without_two_workers_starts_no_pool():
    stats = ContextStats()
    one_task = Executor(stats, 2).start([_task(_square, 3)], "plain")
    single_job = Executor(stats, 1).start(
        [_task(_square, x) for x in range(3)], "plain")
    assert one_task.result() == [9]
    assert single_job.result() == [0, 1, 4]
    assert _events(stats, "pool_start") == []
    assert stats.tasks_run == 0
