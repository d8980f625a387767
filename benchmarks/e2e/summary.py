"""Medians, quartiles and the A/B verdict rule of ``run.py compare``."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

BETTER = "better"
WORSE = "worse"
WITHIN = "within bound"
UNRESOLVED = "unresolved"


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and first/third quartiles of ``values`` (n >= 1).

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), so
    the spread matches what a reader computes from the raw values.  One
    value is its own median and quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        q1 = median = q3 = float(values[0])
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def verdict(base: List[float], change: List[float], better: str,
            bound: float, floor: float = 0.0) -> str:
    """Compare a change's runs of one metric against its parent's.

    The tolerance is ``bound`` times the parent's median, or ``floor``
    (in the metric's unit) when that is larger.

    * **better** — the change wins at least nine tenths of the pairs
      (run i against run i, ties count for neither side) and the medians
      differ by more than the parent's interquartile distance;
    * **worse** — the change's median is worse than the parent's by more
      than the tolerance;
    * **unresolved** — either side's interquartile distance exceeds the
      tolerance, unless every run of the change reads better than every
      run of the parent;
    * **within bound** — otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(base), quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    gain = sign * (qa["median"] - qb["median"])
    if pairs and wins >= 0.9 * len(pairs) and gain > qa["q3"] - qa["q1"]:
        return BETTER
    tolerance = max(bound * abs(qa["median"]), floor)
    if -gain > tolerance:
        return WORSE
    all_better = all(sign * (b - a) < 0 for a in base for b in change)
    spread = max(q["q3"] - q["q1"] for q in (qa, qb))
    if spread > tolerance and not all_better:
        return UNRESOLVED
    return WITHIN
