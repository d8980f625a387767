"""Thermal Herding techniques (the paper's contribution, Section 3).

One core model computes every technique: the timing loop
:meth:`repro.cpu.pipeline.TimingSimulator.run_compiled` plus the
per-trace columns of :mod:`repro.cpu.predecode` and the walks of
:mod:`repro.cpu.wavefront`.  Die 0 is the top die, next to the heat
sink; an access "herded" to the top die touches it alone.

* Width prediction (Section 3) — PC-indexed saturating counters; see
  :mod:`~repro.core.width_prediction` for the counter rules.
* Register file (3.1) — word-partitioned, with a width memoization bit
  per register.  A register never written takes its bit from the value
  read.  Reads under a correct low-width prediction touch the top die;
  a low-width prediction that meets a full-width register stalls the
  whole dispatch group one cycle and corrects the prediction.
* ALU (3.2) — a low-width prediction gates the lower three dies.  Wide
  operands arriving on the bypass cost a one-cycle input stall; low
  operands with a 17-bit-or-wider result cost a wasted low-width pass
  plus a full-width re-execution.
* Bypass (3.3) and ROB — a low-width result drives the top die only.
* Scheduler (3.4) — entry-stacked, allocated by
  :class:`~repro.core.scheduler_allocation.AllocationPolicy`.
* Load/store queues (3.5) — partial address memoization (PAM): an
  address broadcast whose upper 48 bits match the most recent earlier
  store address stays on the top die; loads do not update the memo.
* L1 data cache (3.6) — partial-value encoding; see
  :mod:`~repro.core.dcache_encoding`.
* BTB (3.7) — target memoization: a BTB hit whose target shares the
  branch's upper 48 bits reads the top die; a far target reads all four
  dies and costs one front-end bubble.
* Direction predictor (3.7) — split arrays: every prediction reads the
  direction bits on dies 0-1 and every update writes all four dies.

:mod:`~repro.core.activity` holds the per-module, per-die access counts
that the power and thermal models consume.
"""
