"""Claim-coordinated lookups: the one cache policy for computed results.

Every cached simulation and steady thermal solve goes through a
:class:`Resolver` in two calls: :meth:`Resolver.lookup` loads what the
on-disk cache holds and claims the rest, the caller computes the
claimed keys (on a pool, or while it does other work), and
:meth:`Resolver.settle` stores those results, releases the claims and
waits on the peer processes holding the other keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

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
class Lookup:
    """What :meth:`Resolver.lookup` found: the count of disk hits (placed
    already), the units this process claimed, and the units a peer
    process holds, all of ``expected_type``."""

    expected_type: type
    hits: int = 0
    claimed: List[Unit] = field(default_factory=list)
    waiting: List[Unit] = field(default_factory=list)


@dataclass
class Resolver:
    """Serves cache keys through ``cache`` (None: compute everything),
    counting claim waits, dedups, takeovers and steals in ``stats``.

    ``wait_s``, ``poll_s`` and ``stale_s`` bound the wait on a peer's
    claim.
    """

    cache: object
    stats: object
    wait_s: float = CLAIM_WAIT_S
    poll_s: float = CLAIM_POLL_S
    stale_s: float = DEFAULT_CLAIM_STALE_S

    def lookup(self, items: Iterable[Tuple[str, tuple, object, object]],
               expected_type: type) -> Lookup:
        """Look up (cache key, work, container, slot) items.

        Items sharing a key become one :class:`Unit`.  Every disk hit is
        written to each of its unit's ``container[slot]``; every other
        key is claimed for this process, or left waiting on its holder.
        """
        units: Dict[str, Unit] = {}
        for key, work, container, slot in items:
            units.setdefault(key, Unit(key, work)).targets.append(
                (container, slot))
        found = Lookup(expected_type)
        if self.cache is not None:
            self.cache.touch(list(units))
        for unit in units.values():
            if self.cache is not None:
                cached = self.cache.load(unit.key, expected_type, touch=False)
                if cached is not None:
                    found.hits += 1
                    unit.place(cached)
                    continue
                if not self.cache.try_claim(unit.key):
                    found.waiting.append(unit)
                    continue
            found.claimed.append(unit)
        return found

    def settle(self, found: Lookup, results: Callable[[], Sequence],
               compute: Callable[[List[Unit]], Sequence]) -> None:
        """Finish a :meth:`lookup`: place and store ``results()``, the
        claimed units' results in order, then wait on the peer-held units,
        computing any taken over with ``compute(units)``."""
        self._store(found.claimed, results)
        if found.waiting:
            self._await_claims(found.waiting, found.expected_type, compute)

    def _store(self, units: List[Unit], results: Callable[[], Sequence]) -> None:
        """Place and store ``results()`` for ``units``, then release their
        claims, whether or not ``results()`` raised."""
        if not units:
            return
        try:
            for unit, result in zip(units, results()):
                unit.place(result)
                if self.cache is not None:
                    self.cache.store(unit.key, result)
        finally:
            self.release(units)

    def release(self, units: List[Unit]) -> None:
        """Release ``units``' claims, as when a dispatch that claimed them
        is abandoned before its results exist.

        Unconditional and safe: :meth:`ResultCache.release_claim` only
        removes claims this process holds, so a live peer's claim
        outlives an expired wait on it.
        """
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
            units = [unit for unit, _ in takeovers]
            self._store(units, lambda: compute(units))
            waiting = still
            if waiting:
                time.sleep(self.poll_s)
