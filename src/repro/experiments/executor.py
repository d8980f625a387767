"""Fault-tolerant execution of deterministic tasks on process pools.

The simulation, steady thermal and transient fan-out all run through
:class:`Executor`.  Each :class:`PoolTask` is tracked individually:
completed results are never discarded, a dead worker only costs the
tasks that had not finished (retried on a fresh pool with bounded
exponential backoff), a task past its deadline is reaped and its hung
pool recycled, and tasks that keep failing run serially in this
process.  Tasks are deterministic, so every recovery path yields the
results of a clean run.

Work that submits pool tasks from the middle of a computation is a
*work generator*: it yields a :class:`Batch` (or ``None`` to pause
until collection) and is resumed with the outputs.  This module knows
nothing of what the tasks compute.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

#: Worker-pool attempts each task gets before it falls back to running
#: serially in this process (1 first try + N-1 retries on a fresh pool).
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
    deterministic).  ``detail`` labels the task in robustness events,
    ``timeout_s`` is its per-attempt deadline and ``max_attempts`` its
    worker-pool attempt budget.

    A deadline runs from the attempt's submission, not from the
    collection of a started dispatch: a task that finished while the
    parent was busy elsewhere is collected normally, while one still
    running past its deadline times out as soon as collection starts.
    """

    fn: Callable
    args: tuple
    serial: Callable[[], object]
    detail: Dict[str, object]
    timeout_s: Optional[float] = None
    max_attempts: int = 1
    #: relative run time, for submitting the longest task first
    cost: float = 0.0


@dataclass
class Batch:
    """Pool tasks a work generator yields; it is resumed with their outputs.

    The parent time spent submitting and waiting on the batch is charged
    to ``stage``; ``kind`` names its pool in events.
    """

    tasks: List[PoolTask]
    kind: str
    stage: str


class Started:
    """Work begun now and finished later by :meth:`result`.

    ``steps`` is a generator that submits its pool work, yields once
    while the workers run, and returns its outcome when resumed.  The
    constructor advances it to that yield under a batch id (the open
    batch, else a fresh one); :meth:`result` re-enters the same batch
    and resumes it, so every event of the run carries the id and no
    other batch inherits it.  :meth:`cancel` closes the steps, killing
    any workers still running.
    """

    def __init__(self, steps: Generator, stats):
        self._steps: Optional[Generator] = steps
        self._stats = stats
        self._value = None
        with stats.batch() as self.batch_id:
            self._step()

    def result(self):
        """Resume the steps to completion (once) and return the outcome."""
        while self._steps is not None:
            self._step()
        return self._value

    def cancel(self) -> None:
        """Abandon the work; a no-op once :meth:`result` has returned."""
        if self._steps is not None:
            steps, self._steps = self._steps, None
            with self._stats.batch(self.batch_id):
                steps.close()

    def _step(self) -> None:
        try:
            with self._stats.batch(self.batch_id):
                next(self._steps)
        except StopIteration as stop:
            self._steps, self._value = None, stop.value


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


@dataclass
class Executor:
    """Runs :class:`PoolTask` lists on fault-tolerant pools of ``jobs``
    workers.

    ``stats`` (a ``ContextStats``) receives the pool counters, the
    robustness events, the batch scopes and the per-stage seconds.
    ``fork_detail()`` supplies extra fields of each ``pool_start``
    event, read as the pool forks.
    """

    stats: object
    jobs: int
    max_pool_restarts: int = MAX_POOL_RESTARTS
    retry_backoff_s: float = RETRY_BACKOFF_S
    fork_detail: Callable[[], dict] = dict

    def start(self, tasks: List[PoolTask], kind: str) -> Started:
        """Create a pool and submit ``tasks``; ``result()`` collects
        their outputs in submission order.

        A dispatch with one task, or on a single-job executor, starts no
        pool: its tasks run inline at collection.
        """
        return Started(self._pool_steps(tasks, kind), self.stats)

    def run(self, work: Generator, value=None):
        """Drive a work generator to completion and return its value.

        ``work`` is resumed with ``value`` first; every :class:`Batch` it
        yields then runs on its own pool, and the generator's handling of
        the outputs shares the pool's batch id.
        """
        try:
            batch = work.send(value)
            while True:
                if batch is None:
                    batch = work.send(None)
                    continue
                with self.stats.batch():
                    start = time.perf_counter()
                    try:
                        outs = self.start(batch.tasks, batch.kind).result()
                    finally:
                        self.stats.add_stage(batch.stage,
                                             time.perf_counter() - start)
                    batch = work.send(outs)
        except StopIteration as stop:
            return stop.value

    def staged(self, work: Generator, stage: str) -> Generator:
        """``work`` with the parent time of its own steps charged to
        ``stage``: the time it is suspended on a batch is not (whatever
        runs the batch charges the pool's share to the batch's stage)."""
        value = None
        try:
            while True:
                start = time.perf_counter()
                try:
                    batch = work.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self.stats.add_stage(stage, time.perf_counter() - start)
                value = yield batch
        finally:
            work.close()

    def overlap(self, works: Sequence[Generator], stage: str) -> Generator:
        """:class:`Started` steps running several work generators at once.

        Each generator is advanced to its first :class:`Batch`; all of
        them are submitted to one pool, costliest task first, and the
        steps yield while the workers run.  On collection every
        generator is resumed with its own outputs (later batches, if
        any, run on pools of their own) and the list of their return
        values is the result.  The parent time spent submitting and
        waiting on the shared pool is charged to ``stage``.
        """
        handle: Optional[Started] = None
        try:
            firsts: List[Tuple[int, Optional[Batch]]] = []
            values: List = [None] * len(works)
            for index, work in enumerate(works):
                try:
                    firsts.append((index, next(work)))
                except StopIteration as stop:
                    values[index] = stop.value
            batches = [batch for _, batch in firsts if batch is not None]
            tasks = [task for batch in batches for task in batch.tasks]
            order = sorted(range(len(tasks)), key=lambda i: -tasks[i].cost)
            start = time.perf_counter()
            if tasks:
                handle = self.start(
                    [tasks[i] for i in order],
                    " + ".join(dict.fromkeys(b.kind for b in batches)),
                )
            self.stats.add_stage(stage, time.perf_counter() - start)
            yield
            outs: List = [None] * len(tasks)
            if handle is not None:
                start = time.perf_counter()
                for i, out in zip(order, handle.result()):
                    outs[i] = out
                self.stats.add_stage(stage, time.perf_counter() - start)
            offset = 0
            for index, batch in firsts:
                value = None
                if batch is not None:
                    value = outs[offset:offset + len(batch.tasks)]
                    offset += len(batch.tasks)
                values[index] = self.run(works[index], value)
            return values
        finally:
            if handle is not None:
                handle.cancel()
            for work in works:
                work.close()

    def _pool_steps(self, tasks: List[PoolTask], kind: str) -> Generator:
        """The steps behind :meth:`start`: submit the first round, yield
        while the workers run, then wait, retry, restart a broken or hung
        pool, and fall back to serial runs as needed."""
        workers = max(1, min(self.jobs, len(tasks)))
        pool = _new_pool(workers) if workers > 1 else None
        if pool is None:
            if workers > 1:
                self.stats.record_event("pool_unavailable", kind=kind,
                                        tasks=len(tasks))
            yield
            return [task.serial() for task in tasks]
        self.stats.record_event("pool_start", kind=kind, workers=workers,
                                tasks=len(tasks), **self.fork_detail())

        from concurrent.futures import wait as wait_futures
        from concurrent.futures.process import BrokenProcessPool

        results: List = [None] * len(tasks)
        attempts = [0] * len(tasks)
        pending = list(range(len(tasks)))
        restarts = 0
        first_round = True
        try:
            while pending:
                futures = {}
                deadlines = {}
                pool_broken = False
                pool_hung = False
                failed: List[int] = []
                for index in pending:
                    task = tasks[index]
                    try:
                        future = pool.submit(task.fn, *task.args)
                    except (BrokenProcessPool, RuntimeError):
                        # The pool broke under our feet; everything not
                        # yet submitted joins the retry set.
                        pool_broken = True
                        failed.append(index)
                        continue
                    futures[future] = index
                    if task.timeout_s is not None:
                        deadlines[future] = time.monotonic() + task.timeout_s
                self.stats.tasks_run += len(futures)
                if first_round:
                    # The workers run while the caller carries on;
                    # collection resumes here.
                    first_round = False
                    yield

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
                            self.stats.record_event(
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
                        self.stats.task_timeouts += 1
                        was_running = not future.cancel()
                        if was_running:
                            pool_hung = True
                        self.stats.record_event(
                            "task_timeout",
                            **tasks[index].detail,
                            attempt=attempts[index],
                            timeout_s=tasks[index].timeout_s,
                            running=was_running,
                        )
                if not failed:
                    break

                reason = "hung" if pool_hung else "broke"
                if pool_broken or pool_hung:
                    _abandon_pool(pool, kill=pool_hung)
                    pool = None
                # Tasks that exhausted their budget fall back serially
                # inside the filter; restarting a pool for an empty retry
                # set would be pure churn, so filter first.
                retryable = self._filter_retryable(tasks, results, attempts,
                                                   failed)
                if not retryable:
                    break
                if pool is None:
                    if restarts >= self.max_pool_restarts:
                        self._serial_remainder(
                            tasks, results, retryable,
                            f"{reason} {restarts + 1} times", kind,
                        )
                        break
                    restarts += 1
                    self.stats.pool_restarts += 1
                    self.stats.record_event("pool_restart", kind=kind,
                                            restart=restarts, reason=reason,
                                            tasks=len(retryable))
                    time.sleep(min(MAX_BACKOFF_S,
                                   self.retry_backoff_s * 2 ** (restarts - 1)))
                    pool = _new_pool(workers)
                    if pool is None:
                        self._serial_remainder(tasks, results, retryable,
                                               "could not be recreated", kind)
                        break
                    pending = retryable
                else:
                    # Pool is healthy: retry transient in-task failures on
                    # it (a genuine, deterministic error will surface from
                    # the serial run once attempts are exhausted).
                    self.stats.task_retries += len(retryable)
                    pending = retryable
        except GeneratorExit:
            # Cancelled before collection: nobody will read the results,
            # so do not wait for the workers to finish them.
            _abandon_pool(pool, kill=True)
            pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown()
        return results

    def _filter_retryable(self, tasks: List[PoolTask], results, attempts,
                          failed) -> List[int]:
        """Split failed indices into pool retries vs immediate serial runs.

        Tasks that exhausted their attempt budget (repeat raisers, repeat
        deadline overruns) run serially right here; the rest go back to
        the pool.
        """
        retryable: List[int] = []
        for index in failed:
            task = tasks[index]
            if attempts[index] < task.max_attempts:
                retryable.append(index)
            else:
                self.stats.record_event(
                    "serial_fallback",
                    **task.detail,
                    attempts=attempts[index],
                )
                results[index] = task.serial()
                self.stats.serial_fallbacks += 1
        return retryable

    def _serial_remainder(self, tasks, results, indices, reason: str,
                          kind: str):
        """Finish ``indices`` serially after the pool path was abandoned."""
        warnings.warn(
            f"{kind} worker pool unusable ({reason}); running "
            f"{len(indices)} remaining task(s) serially",
            RuntimeWarning,
            stacklevel=4,
        )
        self.stats.record_event("serial_degrade", kind=kind, reason=reason,
                                tasks=len(indices))
        for index in indices:
            results[index] = tasks[index].serial()
            self.stats.serial_fallbacks += 1
