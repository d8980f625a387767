"""Fault-tolerant execution of deterministic tasks on process pools.

The simulation, steady thermal and transient fan-out all run through
:class:`Executor`.  Each :class:`PoolTask` is tracked individually:
completed results are never discarded, a dead worker only costs the
tasks that had not finished (retried on a fresh pool with bounded
exponential backoff), a task past its deadline is reaped and its hung
pool recycled, and tasks that keep failing run serially in this
process.  Tasks are deterministic, so every recovery path yields the
results of a clean run.

Every dispatch has two phases: :meth:`Executor.start` submits the tasks
and returns at once, and :meth:`Started.result` collects them, so the
caller can do other work while the workers run.  This module knows
nothing of what the tasks compute.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Worker-pool attempts each task gets before it falls back to running
#: serially in this process (1 first try + N-1 retries on a fresh pool).
#: This and the next two constants are read when used, so a test can
#: tighten them with ``monkeypatch.setattr`` on this module.
MAX_TASK_ATTEMPTS = 3

#: Broken-pool restarts per batch before the whole remainder goes serial.
MAX_POOL_RESTARTS = 3

#: Base of the bounded exponential backoff between pool restarts.
RETRY_BACKOFF_S = 0.05

#: Backoff ceiling — a restart never waits longer than this.
MAX_BACKOFF_S = 2.0


def chunks(items: List, count: int) -> List[List]:
    """``items`` cut into ``min(count, len(items))`` contiguous, non-empty
    runs whose lengths differ by at most one (longer runs first)."""
    count = max(1, min(count, len(items)))
    size, extra = divmod(len(items), count)
    runs, start = [], 0
    for index in range(count):
        end = start + size + (index < extra)
        runs.append(items[start:end])
        start = end
    return runs


@dataclass
class PoolTask:
    """One unit of work for the fault-tolerant pool executor.

    ``fn(*args)`` runs in a worker process; ``serial()`` is the
    in-process fallback producing an identical result (every task is
    deterministic).  ``detail`` labels the task in robustness events.
    Each task gets :data:`MAX_TASK_ATTEMPTS` worker-pool attempts.
    """

    fn: Callable
    args: tuple
    serial: Callable[[], object]
    detail: Dict[str, object]


def _new_pool(workers: int):
    try:
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=workers)
    except (ImportError, NotImplementedError, OSError):
        return None  # restricted platforms: caller falls back to serial


def _abandon_pool(pool, kill: bool = False) -> None:
    """Walk away from a broken or hung pool without blocking on it.

    ``kill`` additionally SIGTERMs and reaps the worker processes —
    a hung worker never exits on its own, and ``shutdown(wait=False)``
    would leak it for the lifetime of the campaign.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    if kill:
        for process in processes:
            try:
                process.terminate()
                process.join(timeout=5.0)
            except Exception:
                pass


class Started:
    """Pool tasks submitted now and collected by :meth:`result`.

    The constructor creates the pool and submits the first round under a
    batch id (the open batch, else a fresh one); :meth:`result` re-enters
    the same batch to wait, retry, restart a broken or hung pool, and
    fall back to serial runs as needed, so every event of the dispatch
    carries the id and no other batch inherits it.  :meth:`cancel`
    kills any workers still running.
    """

    def __init__(self, executor: Executor, tasks: List[PoolTask],
                 kind: str):
        self._executor = executor
        self._stats = stats = executor.stats
        self._tasks = tasks
        self._kind = kind
        self._results: Optional[List] = None
        self._attempts = [0] * len(tasks)
        with stats.batch() as self.batch_id:
            self._workers = max(1, min(executor.jobs, len(tasks)))
            self._pool = (_new_pool(self._workers) if self._workers > 1
                          else None)
            if self._pool is None:
                if self._workers > 1:
                    stats.record_event("pool_unavailable", kind=kind,
                                       tasks=len(tasks))
                return
            stats.record_event("pool_start", kind=kind, workers=self._workers,
                               tasks=len(tasks), **executor.fork_detail())
            # The workers run while the caller carries on; collection
            # resumes with this round.
            self._round = self._submit(range(len(tasks)))

    def result(self) -> List:
        """The tasks' outputs in submission order (collected once)."""
        if self._results is None:
            with self._stats.batch(self.batch_id):
                if self._pool is None:
                    self._results = [task.serial() for task in self._tasks]
                else:
                    try:
                        self._results = self._collect()
                    finally:
                        if self._pool is not None:
                            self._pool.shutdown()
                            self._pool = None
        return self._results

    def cancel(self) -> None:
        """Abandon the tasks: nobody will read their results, so kill the
        workers rather than wait for them.  A no-op once :meth:`result`
        has returned."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            _abandon_pool(pool, kill=True)

    def _submit(self, pending) -> Tuple[Dict, Dict, List[int]]:
        """Submit ``pending`` task indices: the futures with their task
        index, the deadlines of the timed ones, and the indices a broken
        pool refused."""
        from concurrent.futures.process import BrokenProcessPool

        futures, deadlines, refused = {}, {}, []
        timeout_s = self._executor.task_timeout_s
        for index in pending:
            task = self._tasks[index]
            try:
                future = self._pool.submit(task.fn, *task.args)
            except (BrokenProcessPool, RuntimeError):
                # The pool broke under our feet; everything not yet
                # submitted joins the retry set.
                refused.append(index)
                continue
            futures[future] = index
            if timeout_s is not None:
                deadlines[future] = time.monotonic() + timeout_s
        self._stats.tasks_run += len(futures)
        return futures, deadlines, refused

    def _collect(self) -> List:
        """Wait on each round, resubmitting failures until every task has
        a result."""
        from concurrent.futures import wait as wait_futures
        from concurrent.futures.process import BrokenProcessPool

        stats, tasks, attempts = self._stats, self._tasks, self._attempts
        results: List = [None] * len(tasks)
        restarts = 0
        futures, deadlines, failed = self._round
        while True:
            pool_broken = bool(failed)
            pool_hung = False
            not_done = set(futures)
            while not_done:
                timed = [deadlines[f] for f in not_done if f in deadlines]
                if not timed:
                    done, not_done = wait_futures(not_done)
                else:
                    done, not_done = wait_futures(
                        not_done,
                        timeout=max(0.0, min(timed) - time.monotonic()),
                    )
                for future in done:
                    index = futures[future]
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        failed.append(index)
                    except Exception as exc:  # in-task failure, pool alive
                        attempts[index] += 1
                        failed.append(index)
                        stats.record_event(
                            "task_error",
                            **tasks[index].detail,
                            attempt=attempts[index],
                            error=repr(exc),
                        )
                if not timed:
                    continue
                # Deadline sweep: any task past its deadline re-enters
                # the retry ladder now.  One that cancels cleanly was
                # only queued behind a stalled pool; one that does not
                # is running on a hung worker, and the whole pool gets
                # recycled once everything still live has drained.
                now = time.monotonic()
                for future in [f for f in not_done
                               if deadlines.get(f, now + 1.0) <= now]:
                    index = futures[future]
                    not_done.discard(future)
                    attempts[index] += 1
                    failed.append(index)
                    stats.task_timeouts += 1
                    was_running = not future.cancel()
                    if was_running:
                        pool_hung = True
                    stats.record_event(
                        "task_timeout",
                        **tasks[index].detail,
                        attempt=attempts[index],
                        timeout_s=self._executor.task_timeout_s,
                        running=was_running,
                    )
            if not failed:
                return results

            reason = "hung" if pool_hung else "broke"
            if pool_broken or pool_hung:
                _abandon_pool(self._pool, kill=pool_hung)
                self._pool = None
            # Tasks that exhausted their budget fall back serially
            # inside the filter; restarting a pool for an empty retry
            # set would be pure churn, so filter first.
            retryable = self._filter_retryable(results, failed)
            if not retryable:
                return results
            if self._pool is None:
                if restarts >= MAX_POOL_RESTARTS:
                    self._serial_remainder(
                        results, retryable,
                        f"{reason} {restarts + 1} times")
                    return results
                restarts += 1
                stats.pool_restarts += 1
                stats.record_event("pool_restart", kind=self._kind,
                                   restart=restarts, reason=reason,
                                   tasks=len(retryable))
                time.sleep(min(MAX_BACKOFF_S,
                               RETRY_BACKOFF_S * 2 ** (restarts - 1)))
                self._pool = _new_pool(self._workers)
                if self._pool is None:
                    self._serial_remainder(results, retryable,
                                           "could not be recreated")
                    return results
            else:
                # Pool is healthy: retry transient in-task failures on
                # it (a genuine, deterministic error will surface from
                # the serial run once attempts are exhausted).
                stats.task_retries += len(retryable)
            futures, deadlines, failed = self._submit(retryable)

    def _filter_retryable(self, results: List, failed: List[int]) -> List[int]:
        """Split failed indices into pool retries vs immediate serial runs.

        Tasks that exhausted their attempt budget (repeat raisers, repeat
        deadline overruns) run serially right here; the rest go back to
        the pool.
        """
        retryable: List[int] = []
        for index in failed:
            task = self._tasks[index]
            if self._attempts[index] < MAX_TASK_ATTEMPTS:
                retryable.append(index)
            else:
                self._stats.record_event(
                    "serial_fallback",
                    **task.detail,
                    attempts=self._attempts[index],
                )
                results[index] = task.serial()
                self._stats.serial_fallbacks += 1
        return retryable

    def _serial_remainder(self, results: List, indices: List[int],
                          reason: str) -> None:
        """Finish ``indices`` serially after the pool path was abandoned."""
        warnings.warn(
            f"{self._kind} worker pool unusable ({reason}); running "
            f"{len(indices)} remaining task(s) serially",
            RuntimeWarning,
            stacklevel=4,
        )
        self._stats.record_event("serial_degrade", kind=self._kind,
                                 reason=reason, tasks=len(indices))
        for index in indices:
            results[index] = self._tasks[index].serial()
            self._stats.serial_fallbacks += 1


@dataclass
class Executor:
    """Runs :class:`PoolTask` lists on fault-tolerant pools of ``jobs``
    workers.

    ``stats`` (a ``ContextStats``) receives the pool counters, the
    robustness events and the batch scopes.  ``task_timeout_s`` is every
    task's per-attempt deadline (None: wait indefinitely).  A deadline
    runs from the attempt's submission, not from the collection of a
    started dispatch: a task that finished while the parent was busy
    elsewhere is collected normally, while one still running past its
    deadline times out as soon as collection starts.
    ``fork_detail()`` supplies extra fields of each ``pool_start``
    event, read as the pool forks.
    """

    stats: object
    jobs: int
    task_timeout_s: Optional[float] = None
    fork_detail: Callable[[], dict] = dict

    def start(self, tasks: List[PoolTask], kind: str) -> Started:
        """Create a pool and submit ``tasks``; ``result()`` collects
        their outputs in submission order.

        A dispatch with one task, or on a single-job executor, starts no
        pool: its tasks run inline at collection.
        """
        return Started(self, tasks, kind)
