"""Golden digests of the columnar timing core.

Each digest is a sha256 over ``pickle.dumps(result, protocol=4)`` of a
:meth:`~repro.cpu.pipeline.TimingSimulator.run_compiled` run, recorded
while the columnar core was byte-identical to the object-path loop.
They pin the core's output on their own, without replaying the object
path: a change that moves any counter, stall, CPI-stack entry or dict
order of any configuration fails here.  A deliberate timing-model change
bumps ``SIMULATOR_VERSION`` and re-records the table below.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro.cpu import caches
from repro.cpu.config import WidthPredictorKind
from repro.cpu.pipeline import (
    ENV_COLUMNAR,
    SIMULATOR_VERSION,
    TimingSimulator,
    simulate,
)
from repro.cpu.predecode import predecode
from repro.cpu.wavefront import IntervalCapture
from repro.experiments.context import _all_configurations
from repro.workloads.suite import generate

LENGTH = 3_000
WARMUP = 1_000
INTERVAL = 500
BENCHMARKS = ("mpeg2", "mcf")
CONFIGS = _all_configurations()

#: The cumulative tallies an :class:`IntervalCapture` snapshots.
CAPTURE_COLUMNS = ("rf1", "rf4", "alu1", "alu4", "l1d1", "l1d4",
                   "sd0", "sd1", "sd2", "sd3")

GOLDEN = {
    "mpeg2/Base":
        "ed4d5b9ae05289aa19ae75343c01ea9936dcedbaf1fe5f3af3ac2df3abe4ef5b",
    "mpeg2/TH":
        "70bdfc90fcaac503adc5c0331fb02858b49f9a74547a01e9b9adc9cccef10e7a",
    "mpeg2/Pipe":
        "f369f9d4c9ba5bf51ab0573735ac0a4eedb7993e656dd2ab1be7d1c6b171fde2",
    "mpeg2/Fast":
        "49aeba11ec09ea2d5a1bff948283e53934fc00b9d0129a6a568d249e1ce3d61f",
    "mpeg2/3D":
        "91379ba2ff4fceb829d98538639e592ce60832826ae41a659793dc10f3aa7f8c",
    "mpeg2/3D-noTH":
        "75ee8fe4fb19d9e5768586ca9cd96a151a8cf0997ed5364eac6d5a52e90982c5",
    "mcf/Base":
        "da122f0093bf5b4caa7bf0f608713375c50b162e9059836ea557814216751410",
    "mcf/TH":
        "7c087b84efd8aa6e16b67762100042345f7cac2158d31a90d61a57d306c573ca",
    "mcf/Pipe":
        "ed501f340afeba5e057663276062590541c2fe28c5e4423f9c12c51df6e33b29",
    "mcf/Fast":
        "2e5bf646b9a81d583a46d1ff6b0313ced88e55f7ad8370d66d98928cf048a07e",
    "mcf/3D":
        "859c49485d6dceb2ac342c1fcd3c26dd9c4b38e591e1a0d03c14858f09c4d7c1",
    "mcf/3D-noTH":
        "e2d1df51c7600a77383faa484f0f4bb601abd41aa301751be8a2d35af28695b0",
    "mcf/TH-static":
        "e309223df5f3be77b4d2de1fed45009f2fc09dd98e07cfbbd722aa30f969be3a",
    "mcf/TH-oracle":
        "b1a5ac69ff5e87a0e5312e29c9948656c268070edb1eaba17bbfd813eca82159",
    "mpeg2/TH-capture":
        "16c7a10f24f0e38987f8931a3e77903f85194c53511ebfee407e263bc0be1a3d",
}


@pytest.fixture(scope="module")
def traces():
    return {name: generate(name, length=LENGTH) for name in BENCHMARKS}


@pytest.fixture(scope="module")
def predecoded(traces):
    return {name: predecode(trace.compiled()) for name, trace in traces.items()}


def _digest(result, capture=None) -> str:
    digest = hashlib.sha256(pickle.dumps(result, protocol=4))
    if capture is not None:
        for column in CAPTURE_COLUMNS:
            digest.update(capture.deltas(column).tobytes())
        digest.update(capture.cycle_deltas().tobytes())
    return digest.hexdigest()


def _columnar(pre, config, capture=None):
    return TimingSimulator(config, batched=True).run_compiled(
        pre, warmup=WARMUP, capture=capture
    )


def _predictor_config(kind):
    return dataclasses.replace(CONFIGS["TH"], width_predictor_kind=kind)


def test_simulator_version_matches_the_recording():
    assert SIMULATOR_VERSION == 1


@pytest.mark.parametrize("trace_name", BENCHMARKS)
@pytest.mark.parametrize("label", list(CONFIGS))
def test_configuration_digest(predecoded, trace_name, label):
    result = _columnar(predecoded[trace_name], CONFIGS[label])
    assert _digest(result) == GOLDEN[f"{trace_name}/{label}"]


@pytest.mark.parametrize("kind", [WidthPredictorKind.STATIC,
                                  WidthPredictorKind.ORACLE])
def test_predictor_kind_digest(predecoded, kind):
    result = _columnar(predecoded["mcf"], _predictor_config(kind))
    assert _digest(result) == GOLDEN[f"mcf/TH-{kind.value}"]


def test_interval_capture_digest(predecoded):
    capture = IntervalCapture(INTERVAL)
    result = _columnar(predecoded["mpeg2"], CONFIGS["TH"], capture=capture)
    assert _digest(result, capture) == GOLDEN["mpeg2/TH-capture"]


class TestMemoryHierarchy:
    """The columnar core reads precomputed miss columns; only the
    object-path loop needs the cache/TLB hierarchy."""

    def test_batched_simulate_builds_no_hierarchy(self, traces, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("columnar simulation built a MemoryHierarchy")

        monkeypatch.delenv(ENV_COLUMNAR, raising=False)
        monkeypatch.setattr(caches.MemoryHierarchy, "__init__", refuse)
        result = simulate(traces["mpeg2"], CONFIGS["3D"], warmup=WARMUP)
        assert _digest(result) == GOLDEN["mpeg2/3D"]

    @pytest.mark.parametrize("label", ["Base", "3D"])
    def test_object_path_matches_the_digest(self, traces, monkeypatch, label):
        monkeypatch.setenv(ENV_COLUMNAR, "0")
        trace = traces["mpeg2"]
        config = CONFIGS[label]
        fresh = TimingSimulator(config).run(trace, warmup=WARMUP)
        assert pickle.dumps(fresh) == pickle.dumps(
            simulate(trace, config, warmup=WARMUP)
        )
        assert _digest(fresh) == GOLDEN[f"mpeg2/{label}"]
