"""Cycle-level out-of-order CPU timing model (the SimpleScalar/MASE substitute).

The simulator replays committed-instruction traces through a scoreboard
model of a Core 2-class out-of-order pipeline (Table 1 of the paper):
4-wide fetch/decode/commit, 6-wide issue, 96-entry ROB, 32-entry RS,
32/20-entry load/store queues, a 10KB hybrid branch predictor with
2K-entry BTB, 32KB L1 caches, a 4MB L2, and TLBs.  Structural hazards,
dependence stalls, branch mispredictions, cache/TLB misses, and all the
Thermal Herding width-misprediction penalties are modelled per
instruction; per-module switching activity is accumulated for the power
and thermal models.
"""
