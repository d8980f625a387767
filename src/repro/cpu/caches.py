"""Set-associative caches and TLBs.

Tag-only LRU models: the simulator needs hit/miss behaviour, not data
movement.  :func:`repro.cpu.wavefront.memory_walk` composes them into
the hierarchy — L1I + L1D backed by a shared L2 backed by DRAM, plus
I/D TLBs — and the timing core charges the latencies: L2 and DRAM
cycles on a miss, a fixed page-walk penalty on a TLB miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


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

    def access(self, addr: int) -> bool:
        """Access ``addr``; returns True on hit.  Misses allocate (LRU evict)."""
        return self.access_line(addr // self.line_bytes)

    def access_line(self, line: int) -> bool:
        """:meth:`access` with the line number (``addr // line_bytes``)
        already computed — the columnar pre-decode supplies line and page
        columns so the hierarchy's hot path skips the per-access divide."""
        tag, index = divmod(line, self.num_sets)
        entries = self._sets[index]
        if entries and entries[0] == tag:
            # MRU hit: remove-then-reinsert at the head is a no-op.
            return True
        if tag in entries:
            entries.remove(tag)
            entries.insert(0, tag)
            return True
        entries.insert(0, tag)
        if len(entries) > self.assoc:
            entries.pop()
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU."""
        index, tag = self._locate(addr)
        return tag in self._sets[index]

    def install(self, addr: int) -> None:
        """Insert a line without counting an access (prefetch fill)."""
        self.install_line(addr // self.line_bytes)

    def install_line(self, line: int) -> None:
        """:meth:`install` with the line number already computed."""
        tag, index = divmod(line, self.num_sets)
        entries = self._sets[index]
        if tag in entries:
            return
        entries.insert(0, tag)
        if len(entries) > self.assoc:
            entries.pop()


class TLB(SetAssociativeCache):
    """A TLB is a set-associative cache over page numbers."""

    def __init__(self, name: str, entries: int, assoc: int, page_bytes: int):
        super().__init__(name, size_bytes=entries * page_bytes, assoc=assoc,
                         line_bytes=page_bytes)
