"""The benchmark suite: named synthetic stand-ins for the paper's traces.

The paper uses 106 traces across six suites.  We provide four named
benchmarks per suite (24 total), each a perturbation of its class
parameters, including stand-ins for the applications the paper calls out
by name:

* ``mpeg2`` (MediaBench) — compute-bound; the paper's peak-power app.
* ``yacr2`` (Pointer) — memory-intensive; smallest power saving (15 %) and
  the thermal worst case under Thermal Herding.
* ``susan`` (MiBench) — image smoothing; largest power saving (30 %).
* ``mcf`` (SPECint) — memory bound; smallest speedup (7 %).
* ``crafty`` (SPECint) — large speedup (65 %).
* ``patricia`` (MiBench) — largest speedup (77 %).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.compiled import CompiledTrace
from repro.workloads.emulator import generate_trace, workload_fingerprint
from repro.workloads.parameters import (
    BenchmarkClass,
    CLASS_PARAMETERS,
    WorkloadParameters,
)


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark: class parameters plus per-benchmark overrides."""

    name: str
    benchmark_class: BenchmarkClass
    seed: int
    overrides: Dict[str, object] = dataclasses.field(default_factory=dict)

    def parameters(self) -> WorkloadParameters:
        base = CLASS_PARAMETERS[self.benchmark_class]
        if not self.overrides:
            return base
        return dataclasses.replace(base, **self.overrides)


def _spec(name, klass, seed, **overrides) -> BenchmarkSpec:
    return BenchmarkSpec(name=name, benchmark_class=klass, seed=seed, overrides=overrides)


#: All benchmarks keyed by name.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        # --- SPECint2000-like -------------------------------------------
        _spec("gzip", BenchmarkClass.SPECINT, 101,
              footprint_bytes=2 << 20, narrow_value_weight=0.66),
        _spec("crafty", BenchmarkClass.SPECINT, 102,
              footprint_bytes=1 << 20, branch_fraction=0.17,
              narrow_value_weight=0.64, shift_share=0.20),
        _spec("mcf", BenchmarkClass.SPECINT, 103,
              footprint_bytes=160 << 20, chase_fraction=0.45,
              chase_pool_bytes=8 << 20,
              sequential_fraction=0.10, load_fraction=0.33,
              pointer_value_weight=0.30, narrow_value_weight=0.40),
        _spec("gcc", BenchmarkClass.SPECINT, 104,
              footprint_bytes=8 << 20, branch_fraction=0.18,
              hard_branch_fraction=0.10),
        # --- SPECfp2000-like --------------------------------------------
        _spec("swim", BenchmarkClass.SPECFP, 201,
              footprint_bytes=96 << 20, fp_fraction=0.42,
              stride_bytes=192, hot_fraction=0.60),
        _spec("art", BenchmarkClass.SPECFP, 202,
              footprint_bytes=48 << 20, load_fraction=0.34,
              stream_bytes=512 << 10),
        _spec("equake", BenchmarkClass.SPECFP, 203,
              footprint_bytes=40 << 20, chase_fraction=0.12,
              sequential_fraction=0.50),
        _spec("applu", BenchmarkClass.SPECFP, 204,
              footprint_bytes=80 << 20, fp_fraction=0.40,
              stride_bytes=64, hot_fraction=0.80, mean_trip_count=96.0),
        # --- MediaBench-like --------------------------------------------
        _spec("mpeg2", BenchmarkClass.MEDIABENCH, 301,
              footprint_bytes=768 << 10, narrow_value_weight=0.78,
              branch_fraction=0.08, hard_branch_fraction=0.02,
              body_size=26, mean_trip_count=64.0),
        _spec("jpeg", BenchmarkClass.MEDIABENCH, 302,
              footprint_bytes=512 << 10, shift_share=0.24),
        _spec("adpcm", BenchmarkClass.MEDIABENCH, 303,
              footprint_bytes=64 << 10, narrow_value_weight=0.84,
              branch_fraction=0.13, hard_branch_fraction=0.08),
        _spec("g721", BenchmarkClass.MEDIABENCH, 304,
              footprint_bytes=96 << 10, shift_share=0.26,
              narrow_value_weight=0.80, hard_branch_fraction=0.08,
              branch_fraction=0.14),
        # --- MiBench-like -----------------------------------------------
        _spec("susan", BenchmarkClass.MIBENCH, 401,
              footprint_bytes=384 << 10, narrow_value_weight=0.82,
              sequential_fraction=0.90, branch_fraction=0.10,
              mean_trip_count=72.0),
        _spec("patricia", BenchmarkClass.MIBENCH, 402,
              footprint_bytes=512 << 10, narrow_value_weight=0.76,
              branch_fraction=0.09, hard_branch_fraction=0.03,
              body_size=22, mean_trip_count=56.0),
        _spec("dijkstra", BenchmarkClass.MIBENCH, 403,
              footprint_bytes=256 << 10, chase_fraction=0.15),
        _spec("qsort", BenchmarkClass.MIBENCH, 404,
              footprint_bytes=1 << 20, hard_branch_fraction=0.14,
              branch_bias=0.68),
        # --- Pointer-intensive-like -------------------------------------
        _spec("yacr2", BenchmarkClass.POINTER, 501,
              footprint_bytes=32 << 20, chase_fraction=0.35,
              chase_pool_bytes=2 << 20, hot_fraction=0.80,
              load_fraction=0.33, narrow_value_weight=0.36),
        _spec("ft", BenchmarkClass.POINTER, 502,
              footprint_bytes=16 << 20, chase_fraction=0.40),
        _spec("ks", BenchmarkClass.POINTER, 503,
              footprint_bytes=8 << 20, sequential_fraction=0.35),
        _spec("tsp", BenchmarkClass.POINTER, 504,
              footprint_bytes=12 << 20, chase_fraction=0.25,
              branch_fraction=0.16),
        # --- Bio-like ----------------------------------------------------
        _spec("blast", BenchmarkClass.BIO, 601,
              footprint_bytes=12 << 20, load_fraction=0.27),
        _spec("hmmer", BenchmarkClass.BIO, 602,
              footprint_bytes=2 << 20, narrow_value_weight=0.74,
              mean_trip_count=56.0),
        _spec("fasta", BenchmarkClass.BIO, 603,
              footprint_bytes=6 << 20, sequential_fraction=0.80),
        _spec("clustalw", BenchmarkClass.BIO, 604,
              footprint_bytes=3 << 20, branch_fraction=0.16),
    ]
}


def benchmark_names() -> List[str]:
    """All benchmark names, stable order."""
    return list(BENCHMARKS)


def benchmarks_in_class(klass: BenchmarkClass) -> List[str]:
    """Benchmark names belonging to one suite."""
    return [name for name, spec in BENCHMARKS.items() if spec.benchmark_class is klass]


def generate(name: str, length: int = 20_000, seed: Optional[int] = None) -> CompiledTrace:
    """Generate the trace for a named benchmark.

    ``seed`` overrides the spec's default seed (useful for variance
    studies); the default makes every call reproducible.
    """
    spec = BENCHMARKS.get(name)
    if spec is None:
        raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(BENCHMARKS)}")
    return generate_trace(
        name=name,
        params=spec.parameters(),
        length=length,
        seed=spec.seed if seed is None else seed,
        benchmark_class=spec.benchmark_class.value,
    )


def fingerprint(name: str, length: int = 20_000, seed: Optional[int] = None) -> str:
    """Content hash of the trace :func:`generate` would produce.

    Resolves the spec's parameters and effective seed exactly the way
    :func:`generate` does, so equal fingerprints mean byte-identical
    traces; used to key the on-disk compiled-trace store.
    """
    spec = BENCHMARKS.get(name)
    if spec is None:
        raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(BENCHMARKS)}")
    return workload_fingerprint(
        name=name,
        params=spec.parameters(),
        length=length,
        seed=spec.seed if seed is None else seed,
        benchmark_class=spec.benchmark_class.value,
    )


def standard_suite(length: int = 20_000) -> List[CompiledTrace]:
    """Generate every benchmark at the given length."""
    return [generate(name, length=length) for name in BENCHMARKS]
