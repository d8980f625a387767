"""Experiment harness: one module per table/figure of the paper.

* :mod:`~repro.experiments.table2` — 2D vs 3D block latencies and the
  derived clock frequencies (Section 5.1.1, Table 2).
* :mod:`~repro.experiments.figure8` — IPC, instructions-per-ns, and
  relative speedup per benchmark class for the Base/TH/Pipe/Fast/3D
  configurations (Figure 8).
* :mod:`~repro.experiments.figure9` — total power and per-module power
  maps for the planar, 3D-without-herding, and 3D Thermal Herding
  processors, plus the per-application savings range (Figure 9).
* :mod:`~repro.experiments.figure10` — worst-case and fixed-application
  thermal maps for the three processors (Figure 10).
* :mod:`~repro.experiments.power_density` — the iso-power, iso-frequency
  4x power density experiment (Section 5.3).
* :mod:`~repro.experiments.width_stats` — the 97 % width prediction
  accuracy claim (Section 3.8) and per-technique herding metrics.

All experiments share an :class:`~repro.experiments.context.ExperimentContext`
that caches traces, simulation runs, and the calibrated power model.
"""
