"""Set-associative caches and TLBs.

Tag-only LRU models: the simulator needs hit/miss behaviour, not data
movement.  :func:`repro.cpu.wavefront.memory_walk` composes them into
the hierarchy — L1I + L1D backed by a shared L2 backed by DRAM, plus
I/D TLBs — and the timing core charges the latencies: L2 and DRAM
cycles on a miss, a fixed page-walk penalty on a TLB miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class CacheStats:
    """Hit/miss counters of one cache or TLB, as a simulation result
    reports them (:attr:`repro.cpu.results.SimulationResult.cache_stats`)."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Tag-only set-associative cache with true-LRU replacement."""

    def __init__(self, name: str, size_bytes: int, assoc: int, line_bytes: int):
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError(f"{name}: sizes must be positive")
        lines = size_bytes // line_bytes
        if lines % assoc:
            raise ValueError(f"{name}: {lines} lines not divisible by associativity {assoc}")
        self.name = name
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = lines // assoc
        # Each set is an LRU-ordered list of tags (index 0 = MRU).
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def walk(self, lines: Sequence[int],
             accessed: Optional[Sequence[bool]] = None,
             prefetch: bool = False) -> List[bool]:
        """Replay line references in order; returns a miss flag per one.

        Reference ``k`` accesses ``lines[k]`` (an MRU update on a hit, an
        LRU allocation on a miss), unless ``accessed`` is given and
        ``accessed[k]`` is False.  With ``prefetch``, each reference then
        installs ``lines[k] + 1`` without counting an access (the
        next-line prefetcher; an installed line keeps its LRU position).
        One call replays a whole sequence, so a walk over a trace pays no
        method call per reference.
        """
        sets = self._sets
        num_sets = self.num_sets
        assoc = self.assoc
        misses = [False] * len(lines)
        if accessed is None:
            accessed = [True] * len(lines)
        for k, (line, access) in enumerate(zip(lines, accessed)):
            if access:
                entries = sets[line % num_sets]
                tag = line // num_sets
                # An MRU hit leaves the order as it is.
                if not entries or entries[0] != tag:
                    if tag in entries:
                        entries.remove(tag)
                    else:
                        misses[k] = True
                        if len(entries) == assoc:
                            entries.pop()
                    entries.insert(0, tag)
            if prefetch:
                line += 1
                entries = sets[line % num_sets]
                tag = line // num_sets
                if tag not in entries:
                    if len(entries) == assoc:
                        entries.pop()
                    entries.insert(0, tag)
        return misses

    def access(self, addr: int) -> bool:
        """Access ``addr``; returns True on hit.  Misses allocate (LRU evict)."""
        return not self.walk([addr // self.line_bytes])[0]

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU."""
        index, tag = self._locate(addr)
        return tag in self._sets[index]

    def install(self, addr: int) -> None:
        """Insert a line without counting an access (prefetch fill)."""
        self.walk([addr // self.line_bytes - 1], accessed=[False], prefetch=True)


class TLB(SetAssociativeCache):
    """A TLB is a set-associative cache over page numbers."""

    def __init__(self, name: str, entries: int, assoc: int, page_bytes: int):
        super().__init__(name, size_bytes=entries * page_bytes, assoc=assoc,
                         line_bytes=page_bytes)
