"""Damaged result-cache entries are misses, never errors or wrong results.

Each entry is a header (magic, payload length, CRC-32) and one pickle.
A flipped bit anywhere in the file must make :meth:`ResultCache.load`
return ``None``, raise nothing, and delete the file, so the next run
recomputes the result and gets the same bytes a clean cache gives.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.experiments import faults
from repro.experiments.cache import ENTRY_HEADER, ResultCache
from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.interval import run_interval
from repro.experiments.leakage import run_leakage_feedback
from repro.power.model import StackKind
from repro.thermal.solver import ThermalResult

TINY = ExperimentSettings(
    trace_length=2_000,
    warmup=500,
    benchmarks=("adpcm",),
    thermal_grid=16,
)
FLIPS = 120


def _single_entry(tmp_path, kind):
    """A cache holding one entry of ``kind``: its root, the entry, the
    entry's bytes and the result type."""
    root = tmp_path / kind
    context = ExperimentContext(TINY, jobs=1, cache=ResultCache(root))
    if kind == "simulation":
        result = context.run("adpcm", "Base")
    else:
        solver = context.solver(StackKind.STACKED_3D)
        ny, nx = solver.chip_grid_shape()
        grids = [np.full((ny, nx), 0.01 * (die + 1))
                 for die in range(solver.floorplan.dies)]
        result = context.solve_thermal_groups([(solver, [grids])])[0][0]
    (entry,) = ResultCache(root).entries()
    return root, entry, entry.read_bytes(), type(result)


@pytest.mark.parametrize("kind", ["simulation", "thermal"])
def test_every_bitflip_is_an_evicting_miss(tmp_path, kind):
    root, entry, clean, result_type = _single_entry(tmp_path, kind)
    if kind == "thermal":
        assert result_type is ThermalResult
    key = entry.name.split(".")[0]
    assert ResultCache(root).load(key, result_type) is not None

    # Every bit of the header, then seeded payload offsets.
    damaged = []
    for bit in range(8 * ENTRY_HEADER.size):
        blob = bytearray(clean)
        blob[bit // 8] ^= 1 << (bit % 8)
        damaged.append(bytes(blob))
    for seed in range(FLIPS):
        entry.write_bytes(clean)
        faults.corrupt_entry(entry, "bitflip", seed)
        damaged.append(entry.read_bytes())
    assert len(set(damaged)) > FLIPS  # distinct positions

    for blob in damaged:
        assert blob != clean
        entry.write_bytes(blob)
        cache = ResultCache(root)
        assert cache.load(key, result_type) is None
        assert cache.evictions == 1
        assert not entry.exists()


def test_bitflip_leaves_the_header_alone(tmp_path):
    _, entry, clean, _ = _single_entry(tmp_path, "simulation")
    for seed in range(20):
        entry.write_bytes(clean)
        faults.corrupt_entry(entry, "bitflip", seed)
        flipped = entry.read_bytes()
        assert flipped[:ENTRY_HEADER.size] == clean[:ENTRY_HEADER.size]
        assert sum(bin(a ^ b).count("1") for a, b in zip(flipped, clean)) == 1


def test_cli_bitflips_every_entry(tmp_path, capsys):
    root, entry, clean, result_type = _single_entry(tmp_path, "simulation")
    assert faults.main(["--bitflip-cache", str(root)]) == 0
    assert "1 cache entries" in capsys.readouterr().out
    assert entry.read_bytes() != clean
    assert ResultCache(root).load(entry.name.split(".")[0], result_type) is None


def test_bitflipped_warm_cache_reruns_to_the_clean_results(tmp_path):
    """Damage every entry of a warm cache: the rerun evicts each one and
    recomputes exactly the results the clean run produced."""
    def run(context):
        interval = run_interval(context, interval_insts=700, dt_s=20e-3,
                                duration_s=0.2)
        return pickle.dumps((interval, run_leakage_feedback(context)))

    settings = ExperimentSettings(trace_length=3_000, warmup=800,
                                  benchmarks=("mpeg2",), thermal_grid=16)
    clean = run(ExperimentContext(settings, jobs=1,
                                  cache=ResultCache(tmp_path)))
    damaged = faults.bitflip_cache(tmp_path)
    assert len(damaged) > 10

    cache = ResultCache(tmp_path)
    assert run(ExperimentContext(settings, jobs=1, cache=cache)) == clean
    assert cache.evictions == len(damaged)
    # Every result load missed; the one hit is the compiled trace, which
    # ``bitflip_cache`` leaves alone.
    assert cache.hits == len(cache.entries("trace")) == 1
