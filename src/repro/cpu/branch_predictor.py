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


#: A 2-bit saturating counter's next value, indexed by its current one,
#: after a taken and after a not-taken outcome.
_TRAIN = ((0, 0, 1, 2), (1, 2, 3, 3))


class _CounterTable:
    """A table of 2-bit saturating counters.

    The layout is part of the interface: ``counters[index & mask]`` is
    the counter for ``index`` (a branch predicts taken at 2 or more, and
    :data:`_TRAIN` gives its next value), so that
    :meth:`HybridPredictor.step` can read and train five tables without
    a method call per access.
    """

    def __init__(self, size: int):
        if size < 1 or size & (size - 1):
            raise ValueError(f"table size must be a power of two, got {size}")
        self.mask = size - 1
        self.counters = [1] * size  # weakly not-taken

    def predict(self, index: int) -> bool:
        return self.counters[index & self.mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        index &= self.mask
        self.counters[index] = _TRAIN[taken][self.counters[index]]


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

    :meth:`step` predicts a branch and trains on its outcome in one go,
    computing the table indices and component predictions once; it is
    what the front-end walk runs per conditional branch.  :meth:`update`
    is :meth:`step` without the prediction.
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

    def predict(self, pc: int) -> bool:
        """The direction predicted for the branch at ``pc``, untrained.

        Written with one :class:`_CounterTable` call per component, this
        is the reference that the tests hold :meth:`step`'s prediction
        to; the front-end walk runs only :meth:`step`.
        """
        base = pc >> 2
        lhist = self._local_history[base & self._local_hist_mask]
        p_bim = self._bimodal.predict(base)
        p_glob = self._gshare.predict(base ^ self._ghr)
        p_loc = self._local.predict(lhist ^ (base & self._local_bits_mask))
        winner_gl = p_glob if self._choose_gl.predict(base) else p_loc
        return winner_gl if self._choose_xb.predict(base) else p_bim

    def update(self, pc: int, taken: bool) -> None:
        """Train on the outcome ``taken`` of the branch at ``pc``."""
        self.step(pc, taken)

    def step(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, then train on ``taken``; returns
        the prediction (what :meth:`predict` would have returned)."""
        base = pc >> 2
        bimodal = self._bimodal
        gshare = self._gshare
        local = self._local
        choose_gl = self._choose_gl
        choose_xb = self._choose_xb
        bim = base & bimodal.mask
        glob = (base ^ self._ghr) & gshare.mask
        slot = base & self._local_hist_mask
        lhist = self._local_history[slot]
        loc = (lhist ^ (base & self._local_bits_mask)) & local.mask
        c_bim = bimodal.counters[bim]
        c_glob = gshare.counters[glob]
        c_loc = local.counters[loc]
        p_bim = c_bim >= 2
        p_glob = c_glob >= 2
        p_loc = c_loc >= 2
        gl = base & choose_gl.mask
        xb = base & choose_xb.mask
        c_gl = choose_gl.counters[gl]
        c_xb = choose_xb.counters[xb]
        winner_gl = p_glob if c_gl >= 2 else p_loc
        predicted = winner_gl if c_xb >= 2 else p_bim
        # Train choosers only on disagreement, then every component.
        if p_glob != p_loc:
            choose_gl.counters[gl] = _TRAIN[p_glob == taken][c_gl]
        if winner_gl != p_bim:
            choose_xb.counters[xb] = _TRAIN[winner_gl == taken][c_xb]
        train = _TRAIN[taken]
        bimodal.counters[bim] = train[c_bim]
        gshare.counters[glob] = train[c_glob]
        local.counters[loc] = train[c_loc]
        self._ghr = ((self._ghr << 1) | taken) & self._ghr_mask
        self._local_history[slot] = ((lhist << 1) | taken) & self._local_bits_mask
        return predicted
