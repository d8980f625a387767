"""Reproduction of *Thermal Herding: Microarchitecture Techniques for
Controlling Hotspots in High-Performance 3D-Integrated Processors*
(Puttaswamy & Loh, HPCA 2007).

The package is organized bottom-up:

* :mod:`repro.isa` — the trace format (one numpy row per committed
  instruction) and value-width utilities.
* :mod:`repro.workloads` — synthetic benchmark generators (six suites).
* :mod:`repro.circuits` — 2D/3D latency and energy models (HSpice stand-in).
* :mod:`repro.core` — the Thermal Herding techniques themselves.
* :mod:`repro.cpu` — out-of-order timing simulator (SimpleScalar stand-in).
* :mod:`repro.power` — per-module power integration.
* :mod:`repro.floorplan` — planar and 4-die-stack floorplans.
* :mod:`repro.thermal` — steady-state 3D thermal solver (HotSpot stand-in).
* :mod:`repro.experiments` — one runner per table/figure of the paper.

Quickstart::

    from repro.workloads import generate
    from repro.cpu import simulate, paper_configurations

    trace = generate("mpeg2", length=20_000)
    configs = paper_configurations()
    base = simulate(trace, configs["Base"].config, warmup=6_000)
    full = simulate(trace, configs["3D"].config, warmup=6_000)
    print(f"3D speedup: {full.ipns / base.ipns:.2f}x")
"""

__version__ = "1.0.0"

from repro.cpu import paper_configurations, simulate
from repro.workloads import generate, standard_suite

__all__ = [
    "__version__",
    "paper_configurations",
    "simulate",
    "generate",
    "standard_suite",
]
