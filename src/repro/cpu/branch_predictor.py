"""Hybrid branch direction predictor and branch outcome counts.

Table 1 specifies a 10KB bimodal/local/global hybrid.  We implement the
three components plus a majority combiner (each component is trained on
every branch): a bimodal table, a gshare global predictor, and a
two-level local-history predictor.  :func:`repro.cpu.wavefront.frontend_walk`
replays it together with the BTB (a set-associative target cache) and
the return-address stack over a trace's control instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class _CounterTable:
    """A table of 2-bit saturating counters."""

    def __init__(self, size: int):
        if size < 1 or size & (size - 1):
            raise ValueError(f"table size must be a power of two, got {size}")
        self._mask = size - 1
        self._table = [1] * size  # weakly not-taken

    def predict(self, index: int) -> bool:
        return self._table[index & self._mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        index &= self._mask
        count = self._table[index]
        if taken and count < 3:
            self._table[index] = count + 1
        elif not taken and count > 0:
            self._table[index] = count - 1


@dataclass
class BranchStats:
    """Direction and target prediction outcome counters."""

    conditional_branches: int = 0
    direction_mispredicts: int = 0
    btb_lookups: int = 0
    btb_misses: int = 0
    ras_returns: int = 0
    ras_mispredicts: int = 0

    @property
    def direction_accuracy(self) -> float:
        if not self.conditional_branches:
            return 0.0
        return 1.0 - self.direction_mispredicts / self.conditional_branches

    @property
    def btb_hit_rate(self) -> float:
        if not self.btb_lookups:
            return 0.0
        return 1.0 - self.btb_misses / self.btb_lookups


class HybridPredictor:
    """Tournament bimodal/local/global hybrid direction predictor.

    Two chooser tables select, per branch, first between the global
    (gshare) and local two-level components, and then between that winner
    and the bimodal component — so a branch is predicted by whichever
    component has been right for it most recently.
    """

    def __init__(
        self,
        bimodal_entries: int = 4096,
        global_entries: int = 4096,
        local_histories: int = 1024,
        local_entries: int = 1024,
        history_bits: int = 12,
        local_history_bits: int = 10,
    ):
        self._bimodal = _CounterTable(bimodal_entries)
        self._gshare = _CounterTable(global_entries)
        self._local = _CounterTable(local_entries)
        self._choose_gl = _CounterTable(global_entries)   # >=2: pick global
        self._choose_xb = _CounterTable(global_entries)   # >=2: pick winner over bimodal
        self._local_history: List[int] = [0] * local_histories
        self._local_hist_mask = local_histories - 1
        self._local_bits_mask = (1 << local_history_bits) - 1
        self._ghr = 0
        self._ghr_mask = (1 << history_bits) - 1

    def _indices(self, pc: int):
        base = pc >> 2
        bim = base
        glob = base ^ self._ghr
        lhist = self._local_history[base & self._local_hist_mask]
        loc = lhist ^ (base & self._local_bits_mask)
        return bim, glob, loc

    def _components(self, pc: int):
        bim, glob, loc = self._indices(pc)
        return (
            (bim, glob, loc),
            self._bimodal.predict(bim),
            self._gshare.predict(glob),
            self._local.predict(loc),
        )

    def predict(self, pc: int) -> bool:
        (bim, _glob, _loc), p_bim, p_glob, p_loc = self._components(pc)
        winner_gl = p_glob if self._choose_gl.predict(bim) else p_loc
        return winner_gl if self._choose_xb.predict(bim) else p_bim

    def update(self, pc: int, taken: bool) -> None:
        (bim, glob, loc), p_bim, p_glob, p_loc = self._components(pc)
        winner_gl = p_glob if self._choose_gl.predict(bim) else p_loc
        # Train choosers only on disagreement.
        if p_glob != p_loc:
            self._choose_gl.update(bim, p_glob == taken)
        if winner_gl != p_bim:
            self._choose_xb.update(bim, winner_gl == taken)
        self._bimodal.update(bim, taken)
        self._gshare.update(glob, taken)
        self._local.update(loc, taken)
        self._ghr = ((self._ghr << 1) | int(taken)) & self._ghr_mask
        slot = (pc >> 2) & self._local_hist_mask
        self._local_history[slot] = (
            (self._local_history[slot] << 1) | int(taken)
        ) & self._local_bits_mask
