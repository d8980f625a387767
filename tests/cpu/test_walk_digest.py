"""Golden digests of the wavefront walks' per-trace outputs.

The timing core's digests pin what the walks feed it only through the
final results.  These pin the walk outputs themselves, per trace: the
L2 prewarm install sequence (its order seeds the L2's LRU state), the
front-end walk's mask columns and the memory walk's miss columns.  They
were recorded with the walks written as per-event method calls, before
those loops were fused and inlined.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cpu.predecode import predecode
from repro.cpu.wavefront import frontend_walk, memory_walk
from repro.experiments.context import _all_configurations
from repro.workloads.suite import generate

TRACES = ("gcc", "mcf", "equake")
CONFIG = _all_configurations()["Base"]

FRONTEND_COLUMNS = ("new_line", "dir_mispred", "mispredicted",
                    "btb_lookup", "btb_hit", "ras_hit")
MEMORY_COLUMNS = ("itlb_miss", "l1i_miss", "il2_miss",
                  "dtlb_miss", "l1d_miss", "dl2_miss")

GOLDEN = {
    "gcc/prewarm":
        "e3399ffac45c67630386cfdb40be91690856661089a445c620e257ad88186be6",
    "gcc/frontend":
        "2b7d57d0de4d19a9a6539dd8eb990b98b8d9a1a7cbf7e1ac45ed71e90bc24709",
    "gcc/memory":
        "01dc1b21e4b2629e41398a95b64882e57df086810f545f2174e29cb8db0aee59",
    "gcc/memory-cold":
        "93148190434f0702e73e6376d83b95ee0a04375ca55110afde363e8fd8bbc93f",
    "mcf/prewarm":
        "e1a496f212a4464ed709c99ffa53a5496c1d6fae68b5a11c4107c4cda6f7c2e7",
    "mcf/frontend":
        "ecf4019004b1795ba1a5ac43358c94937f3efec84e5f06e222db03cdc8b01400",
    "mcf/memory":
        "f8b54bc905f364a4f79af1ef5091746315a79c08d9051d87fede1bf1dea5d33d",
    "mcf/memory-cold":
        "1b0cb4abd8fe8c8140d75eb025c3cfb43a86a8ff48b2b617373c3aabf30a4532",
    "equake/prewarm":
        "3aa4994e6129c28f6251e8055c49559de9b69dbe5a4f327b5b4daa847dbdb3af",
    "equake/frontend":
        "df6bab102b26308dace62c36cef7a35a6ea7f28ac96b61ea175e03bfe84a2b31",
    "equake/memory":
        "15860dc486fa8107160ce4f357c98a2acbda4a353bd5902000c17185b8eff309",
    "equake/memory-cold":
        "89ab2bfc6be17d1ce66a8651cd1e1101c5fdacb99f49dd219210e891ac17addf",
}


@pytest.fixture(scope="module")
def predecoded():
    return {name: predecode(generate(name)) for name in TRACES}


def _columns_digest(walk, columns) -> str:
    digest = hashlib.sha256()
    for column in columns:
        mask = np.asarray(getattr(walk, column), dtype=bool)
        digest.update(column.encode())
        digest.update(mask.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", TRACES)
def test_prewarm_lines_digest(predecoded, name):
    lines = np.asarray(predecoded[name].prewarm_lines(64), dtype=np.int64)
    digest = hashlib.sha256(lines.tobytes()).hexdigest()
    assert digest == GOLDEN[f"{name}/prewarm"]


@pytest.mark.parametrize("name", TRACES)
def test_frontend_walk_digest(predecoded, name):
    walk = frontend_walk(predecoded[name], CONFIG)
    assert _columns_digest(walk, FRONTEND_COLUMNS) == GOLDEN[f"{name}/frontend"]


@pytest.mark.parametrize("prewarm", [True, False])
@pytest.mark.parametrize("name", TRACES)
def test_memory_walk_digest(predecoded, name, prewarm):
    pre = predecoded[name]
    walk = memory_walk(pre, CONFIG, frontend_walk(pre, CONFIG), prewarm)
    label = "memory" if prewarm else "memory-cold"
    assert _columns_digest(walk, MEMORY_COLUMNS) == GOLDEN[f"{name}/{label}"]
