"""Width-prediction outcome counts (Section 3).

For each integer-datapath instruction the processor predicts whether it
will use low-width (<= 16-bit) or full-width values.  The paper's
predictor is a direct-mapped table of saturating counters indexed by
``pc >> 2`` (two bits each, from Loh [13]): a counter below the
threshold predicts low width, a low-width outcome decrements it and a
full-width outcome increments it, and the table starts at the threshold
(weakly full width) so that early errors are safe.  An unsafe
misprediction caught at register read pins the counter to its maximum
(the in-flight correction of Section 3.1).  The counters run inline in
:meth:`repro.cpu.pipeline.TimingSimulator.run_compiled`, which reports
the outcomes as :class:`WidthPredictorStats`.

Misprediction taxonomy (Section 3):

* **unsafe** — predicted low width, actually full width; requires stalls
  (register read, cache read) or re-execution (ALU output).
* **safe** — predicted full width, actually low; no stall, just a missed
  power-gating opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WidthPredictorStats:
    """Prediction outcome counts."""

    predictions: int = 0
    correct: int = 0
    unsafe_mispredictions: int = 0
    safe_mispredictions: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0

    @property
    def unsafe_rate(self) -> float:
        return self.unsafe_mispredictions / self.predictions if self.predictions else 0.0
