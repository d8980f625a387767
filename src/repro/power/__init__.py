"""Power model: per-module energies x activity x frequency (Section 4).

The paper combines HSpice per-access energies with MASE activity factors
and the clock frequency; it assumes the baseline 2D processor dissipates
35 % of its power in the clock network and 20 % in leakage, that the 3D
clock network's power halves (footprint folded by four, conservatively
credited by two), and that leakage is unchanged by 3D or Thermal Herding.

This package reproduces that pipeline: per-access energies come from
:mod:`repro.circuits.blocks`; per-module (and per-die) activity comes
from a :class:`~repro.cpu.results.SimulationResult`; one global activity
scale is calibrated so the baseline dual-core mpeg2 run dissipates the
paper's 90 W.
"""
