"""Golden digests of the interval power path.

The core digests (``test_core_digest.py``) pin what the timing loop
returns and the raw tallies an :class:`IntervalCapture` snapshots.
These pin what the interval co-simulation builds from them: per
(trace, configuration, interval size), a sha256 over the pickles of
the run result, the series' per-interval activity counters,
instruction counts and cycle counts, followed by every interval's
power breakdown from :meth:`~repro.power.model.PowerModel.evaluate_intervals`
(module names, watts and per-die watts as float64 bytes).  A one
billion instruction interval is the one-interval series, which must
equal the aggregate run.  The digests were recorded before the
aggregate and per-interval activity rules were folded into one table.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.cpu.pipeline import TimingSimulator
from repro.cpu.predecode import predecode
from repro.cpu.wavefront import IntervalCapture, build_interval_series
from repro.experiments.context import CONFIG_STACKS, _all_configurations
from repro.power.model import PowerModel
from repro.workloads.suite import generate

LENGTH = 8_000
WARMUP = 2_000
TRACES = ("mpeg2", "mcf", "gcc")
INTERVALS = (500, 2_000, 10**9)
CONFIGS = _all_configurations()

GOLDEN = {
    "mpeg2/Base/500":
        "efa9ccecd5e4ebc49615abcc63ff1d21dfb3eb713d44ecea1dbd0ef8b314ef02",
    "mpeg2/Base/2000":
        "48bd3feb19e2ab5c2e08ca1dbf3de734a9d2786774054fb402e914cc983f0e13",
    "mpeg2/Base/1000000000":
        "00c3b8249f18d8f7871d668e9e28ac7a8baa2807fd08b6e5daed99dc01c41a43",
    "mpeg2/TH/500":
        "36f50b70f8f7c08fb0ce7488064d6924811e24499a9c3be016a4ae234abda62c",
    "mpeg2/TH/2000":
        "c5793b456acc86c78b8a085d05dafe56c4ee9872ec4480cd8f7c518585ff74ef",
    "mpeg2/TH/1000000000":
        "f69af5328237515f31c7d187e7010a89ea11a062cc9dadc28b9f2222404d8c6a",
    "mpeg2/Pipe/500":
        "790d3f89c7460e74a602d225ca59dabd55ea2ca3d81b63db54b01cde400dbd52",
    "mpeg2/Pipe/2000":
        "63c4919078bc49e5e6ac1f703364bf6d682503fac55265b7b09e32b81f3fd843",
    "mpeg2/Pipe/1000000000":
        "fea42c85d231665140750659af39f5a5bf1b6d36f7bedf2ecefaa98a1af8f3d5",
    "mpeg2/Fast/500":
        "6aa45261ffcfdad7b626a7e6c8edc6582a0c7b522c783acba1b03f5872a56b2f",
    "mpeg2/Fast/2000":
        "237fe1e90a2410f05bb440a0d39f48907b71a1c014dadbb8f68677f80735fbbd",
    "mpeg2/Fast/1000000000":
        "85fbc56bca8d71b097a0f79fd8a9423649dda57d3327b328bae7f451a849d337",
    "mpeg2/3D/500":
        "69b024c4f9b2daee81b790d442b64dda768af71d4cad4bc8f51df6898a08fb18",
    "mpeg2/3D/2000":
        "5e584dc13065417e5722520c294e17bef0e3b208e7d2313cb4a4d77b47a55e12",
    "mpeg2/3D/1000000000":
        "a325976fe9133a15f9855f2f32eedf1015e86cb8a86272d1be42e0d72d06488a",
    "mpeg2/3D-noTH/500":
        "ff7c9eceb7db7a44e40640287ff5b7284e1d0d586ab0fa26a137c9ce46d00235",
    "mpeg2/3D-noTH/2000":
        "9b4a76b4585a8e8f4c16acd0da11235c0989a81ae2170c9e9464dd5058baf51b",
    "mpeg2/3D-noTH/1000000000":
        "067a0638d94edeb89e7375dbf2e8e93dca7047fea70ac5be741acdc75afdcadf",
    "mcf/Base/500":
        "c5780231083ec0c827ada11c8197bd5ee5dc53e84279543edec437a128e8ded1",
    "mcf/Base/2000":
        "0c612ab95fe59b36954fde0434a32f844b744118641e6fbfaeea8c4ef8fa01f6",
    "mcf/Base/1000000000":
        "168a302ba179a888e2510127396c4cff62666d644fde8892f57bfb63605bc692",
    "mcf/TH/500":
        "ed0514d3f08307951eec196795a3c37abb90557cad6e632c15b4695f3be1bed9",
    "mcf/TH/2000":
        "fff0f28604f4e04be1b866208ad51624197ecd46e348b8d4ed212d70ab1991fb",
    "mcf/TH/1000000000":
        "3fa4bc0394f0cd0cddb70e4beba04b0dc74fa3368ba688bd6a111644d8b47308",
    "mcf/Pipe/500":
        "dc3f25e7e497a95f72b13f03827e343ea42b40f2e843f493305e56e1464cd679",
    "mcf/Pipe/2000":
        "f2e57e2f3eadfcf1f276c0663297d2f716d39278b01ac0402cfc3468aa0f8b0c",
    "mcf/Pipe/1000000000":
        "cb827feb0d7f0e39fe88c917458c31605d7761b8088711bfedda7aaa52a78ae6",
    "mcf/Fast/500":
        "4af8b45607c6fca863fdf668e298940d3e9e495e21ace894a2fb36422bb3e72b",
    "mcf/Fast/2000":
        "7ac92b93c8678443cf4ca711655df14a37ff1caf653e53baa4943e0359f52389",
    "mcf/Fast/1000000000":
        "f8bf2cf830f524cbb8e4aebcef9103adbf3d1db45f950edf3d19fdfc593eb33e",
    "mcf/3D/500":
        "d5bbf92f7716e6d2500509754ab96d5899dc2533230817d8445246d236127b72",
    "mcf/3D/2000":
        "7c3e573fe0667c925ec78cccd4f609cf62abc17bcf33f155fe38daa1072ec09c",
    "mcf/3D/1000000000":
        "3568b83894e99c1cd8d82d86afa10d2e6510f1039eb6a1bf60c0614bd3120581",
    "mcf/3D-noTH/500":
        "0df1e3f95637e0ae42042d3a58963a045007150840e3352fe0f096fb37978e30",
    "mcf/3D-noTH/2000":
        "1152b1e09535ebaa83bf125c4c251f32a267807e7eae0b74cced15067636dde2",
    "mcf/3D-noTH/1000000000":
        "cd89f569a3ab4d3c3c95f59387ef7f60a48d168c9fa622418484181a0088ec5e",
    "gcc/Base/500":
        "e87267eeaf7bfd0201bd71d786c6da944b7405b3d9a24d87e07d215606656673",
    "gcc/Base/2000":
        "f26abef131331273acabfb72a07e0ee0dd7ff39fe6a53fa44facbe163a128b1a",
    "gcc/Base/1000000000":
        "fcae96564d2c5d09167622398e517cdde9cf169eea3e65affb0d3150b19b47f7",
    "gcc/TH/500":
        "5fef9d8e834f7ba7b1c23201278371d49a2cc89afd2da5030bfe3f14725ca465",
    "gcc/TH/2000":
        "307ca3ac7cfd15bd6dc2da3a4789ab1387e947957097db873edf72c8aa97a6f8",
    "gcc/TH/1000000000":
        "4dd08134937ec7831f14df8f7f2394098bc9676c9d9b194e8821931d61464b29",
    "gcc/Pipe/500":
        "d827115e123b29ccb109cefb6b45be363bbff178de01fc4f269eb31fb79b41b2",
    "gcc/Pipe/2000":
        "766500e59f86b960eabb11db0c3b1b61a9291df450e33d1af84d71e413641d88",
    "gcc/Pipe/1000000000":
        "e6e2b42617d86c699555bb75fbbc5d63341b2e028cb9c0fe33589e97f9e1a770",
    "gcc/Fast/500":
        "8db7db9c8d90266abeb49d816818d749ab9fbdf40949c8051a619fb8a00b4365",
    "gcc/Fast/2000":
        "df72421aa1ec3fdd7c7916b7f4639ae2e90a25b43ec799d31ea3b672ecae1bba",
    "gcc/Fast/1000000000":
        "542fe0e144e91a857ef35398204c6681ddb504022529b1d131496b9654a201cc",
    "gcc/3D/500":
        "77d53456057cb61b0ea63bd51b696391be127f710fb0b3155d1ccc5b30b299d0",
    "gcc/3D/2000":
        "1c8846812cd9a0d05473f671fc6b3472885a5bbc44e6acb807209683819de630",
    "gcc/3D/1000000000":
        "93cd1888a99a60e44f4f498cb0c58120c01e608dd5e18fe890565e516ac80036",
    "gcc/3D-noTH/500":
        "1af8ae02d7503e5a267beaf5f1924d5eede33d10639848f97b275f5ea65242eb",
    "gcc/3D-noTH/2000":
        "271d0138b36c21c822d436bbcb244b792faf965a8f9f64e4ed78858cddaabbcc",
    "gcc/3D-noTH/1000000000":
        "cae2784209b4963d5c8b76c0decb3d0c3e73d66750ea1254643d0c7751162096",
}


@pytest.fixture(scope="module")
def predecoded():
    return {name: predecode(generate(name, length=LENGTH)) for name in TRACES}


@pytest.fixture(scope="module")
def model():
    return PowerModel()


def _digest(result, series, breakdowns) -> str:
    digest = hashlib.sha256()
    for part in (result, series.counters, series.insts, series.cycles):
        digest.update(pickle.dumps(part, protocol=4))
    for breakdown in breakdowns:
        for name, module in breakdown.modules.items():
            digest.update(name.encode())
            digest.update(np.array([module.watts, *module.per_die],
                                   dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("label", list(CONFIGS))
@pytest.mark.parametrize("trace_name", TRACES)
def test_interval_series_digest(predecoded, model, trace_name, label,
                                interval):
    pre = predecoded[trace_name]
    config = CONFIGS[label]
    capture = IntervalCapture(interval)
    result = TimingSimulator(config).run_compiled(
        pre, warmup=WARMUP, capture=capture
    )
    series = build_interval_series(
        pre, config, WARMUP, True, capture, result.activity
    )
    breakdowns = model.evaluate_intervals(
        result, series, CONFIG_STACKS[label]
    )
    assert len(breakdowns) == len(series)
    if interval >= LENGTH:
        assert pickle.dumps(series.counters[0]) == pickle.dumps(result.activity)
    assert _digest(result, series, breakdowns) == \
        GOLDEN[f"{trace_name}/{label}/{interval}"]
