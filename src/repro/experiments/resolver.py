"""Claim-coordinated lookups: the one cache policy for computed results.

Every cached simulation and steady thermal solve goes through
:meth:`Resolver.steps`: load from the on-disk cache, else claim and
compute, else wait on the peer process holding the claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, Tuple

from repro.experiments.cache import DEFAULT_CLAIM_STALE_S

#: Bounded wait (seconds) on another process's cache claim before taking
#: over and computing anyway (duplicate work beats waiting forever).
CLAIM_WAIT_S = 120.0

#: Poll interval while waiting on another process's claim.
CLAIM_POLL_S = 0.05


@dataclass
class Unit:
    """One distinct cache key of a claim-coordinated lookup.

    ``work`` is what the compute callback needs, ``(benchmark, config)``
    or ``(solver, grids)``; the result goes to every ``container[slot]``
    in ``targets`` (a memo dict or a per-group result list).
    """

    key: str
    work: tuple
    targets: List[tuple] = field(default_factory=list)

    def place(self, result) -> None:
        for container, slot in self.targets:
            container[slot] = result


@dataclass
class Resolver:
    """Serves cache keys through ``cache`` (None: compute everything),
    counting claim waits, dedups, takeovers and steals in ``stats``.

    ``executor`` (an :class:`~repro.experiments.executor.Executor`) runs
    the computations of keys taken over while waiting; ``wait_s``,
    ``poll_s`` and ``stale_s`` bound that wait.
    """

    cache: object
    stats: object
    executor: object
    wait_s: float = CLAIM_WAIT_S
    poll_s: float = CLAIM_POLL_S
    stale_s: float = DEFAULT_CLAIM_STALE_S

    def steps(self, items: Iterable[Tuple[str, tuple, object, object]],
              expected_type: type, compute) -> Generator:
        """Serve (cache key, work, container, slot) items; return disk hits.

        ``compute(units)`` returns the claimed units' results in order,
        or a work generator that yields its pool
        :class:`~repro.experiments.executor.Batch` first.  Every result
        is written to each of its unit's ``container[slot]``.  A work
        generator: the claimed units' batch passes through it.
        """
        units: Dict[str, Unit] = {}
        for key, work, container, slot in items:
            units.setdefault(key, Unit(key, work)).targets.append(
                (container, slot))
        hits = 0
        claimed: List[Unit] = []
        waiting: List[Unit] = []
        if self.cache is not None:
            self.cache.touch(list(units))
        for unit in units.values():
            if self.cache is not None:
                cached = self.cache.load(unit.key, expected_type, touch=False)
                if cached is not None:
                    hits += 1
                    unit.place(cached)
                    continue
                if not self.cache.try_claim(unit.key):
                    waiting.append(unit)
                    continue
            claimed.append(unit)
        yield from self._compute(claimed, compute)
        if waiting:
            self._await_claims(waiting, expected_type, compute)
        return hits

    def _compute(self, units: List[Unit], compute) -> Generator:
        """Compute, place and store ``units``, then release their claims.

        Releasing is unconditional and safe: :meth:`ResultCache.
        release_claim` only removes claims this process holds, so a live
        peer's claim outlives an expired wait on it.  A work generator.
        """
        if not units:
            return
        try:
            results = compute(units)
            if isinstance(results, Generator):
                results = yield from results
            for unit, result in zip(units, results):
                unit.place(result)
                if self.cache is not None:
                    self.cache.store(unit.key, result)
        finally:
            if self.cache is not None:
                for unit in units:
                    self.cache.release_claim(unit.key)

    def _await_claims(self, waiting: List[Unit], expected_type: type,
                      compute) -> None:
        """Collectively wait on peer-claimed units, stealing as we go.

        One bounded deadline covers the whole set (the peers run
        concurrently with each other, so their waits overlap).  Each poll
        sweeps every outstanding key: results that landed are adopted
        (``claim_dedup``), and abandoned claims — stale holder, or
        released without a stored result — are taken over and computed
        *immediately* (``claim_steals``), so this process does useful
        work while the remaining keys are still being waited on.  Keys
        still claimed when the deadline expires are computed
        uncoordinated (``wait_expired``; no claim of our own is taken).
        """
        cache = self.cache
        for unit in waiting:
            self.stats.claim_waits += 1
            self.stats.record_event("claim_wait", key=unit.key[:16])
        deadline = time.monotonic() + self.wait_s
        while waiting:
            still: List[Unit] = []
            takeovers: List[Tuple[Unit, str]] = []
            for unit in waiting:
                # Read the claim before the result: a holder stores before
                # it releases, so a claim already gone here means its
                # result is loadable now or was never stored.
                stale = cache.claim_stale(unit.key, self.stale_s)
                released = not stale and cache.claim_holder(unit.key) is None
                result = cache.load(unit.key, expected_type)
                if result is not None:
                    self.stats.claim_dedup += 1
                    self.stats.record_event("claim_dedup", key=unit.key[:16])
                    unit.place(result)
                    continue
                if stale:
                    cache.break_claim(unit.key)
                    reason = "stale"
                elif released:
                    # Holder released without storing (full disk, crash
                    # between release and store): claim and compute.
                    reason = "released"
                else:
                    still.append(unit)
                    continue
                cache.try_claim(unit.key)
                takeovers.append((unit, reason))
            steals = len(takeovers)
            if still and time.monotonic() >= deadline:
                takeovers += [(unit, "wait_expired") for unit in still]
                still = []
            for unit, reason in takeovers:
                self.stats.claim_takeovers += 1
                self.stats.record_event("claim_takeover", key=unit.key[:16],
                                        reason=reason)
            if steals:
                self.stats.claim_steals += steals
                self.stats.record_event("claim_steal", tasks=steals)
            self.executor.run(self._compute([unit for unit, _ in takeovers],
                                            compute))
            waiting = still
            if waiting:
                time.sleep(self.poll_s)
