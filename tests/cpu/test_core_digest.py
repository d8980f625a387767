"""Golden digests of the timing core.

Each digest is a sha256 over ``pickle.dumps(result, protocol=4)`` of a
:meth:`~repro.cpu.pipeline.TimingSimulator.run_compiled` run, recorded
while the columnar core was byte-identical to the object-path loop it
replaced.  The second half of the table holds every input the old
core-equivalence tests replayed (degenerate traces, tiny predictor
tables, each predictor kind on a memory-bound trace).  The digests pin
the core's output on their own: a change that moves any counter,
stall, CPI-stack entry or dict order of any configuration fails here.
A deliberate timing-model change bumps ``SIMULATOR_VERSION`` and
re-records the table below.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import pickle

import pytest

from repro.core.scheduler_allocation import AllocationPolicy
from repro.cpu import caches
from repro.cpu.config import WidthPredictorKind
from repro.cpu.pipeline import SIMULATOR_VERSION, TimingSimulator, simulate
from repro.cpu.predecode import predecode
from repro.cpu.wavefront import IntervalCapture
from repro.experiments.context import _all_configurations
from repro.isa.compiled import CompiledTrace, compile_trace, trace_row
from repro.isa.opcodes import OpClass
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
    # The round-robin scheduler ablation, recorded before the wakeup
    # tallies moved out of the loop.
    "mpeg2/TH-round_robin":
        "3966397364f4df02867845b0181fa9680ffa71c1977371c640e925b747bcd049",
    "mpeg2/TH-round_robin-capture":
        "f36f2f90231e5f10771457448d1b2d353a79ae634d529b6a3eb95e7af9a0349d",
    "high-registers/TH":
        "b14e4da96562157147beb5406608983466e413fe6fdbc8cacf7a2015dbf56458",
    "high-registers/Base":
        "3125c5a2860c1215e7c29f82fd711ce37db533cde824bce8eddb5e3fc728fc42",
    # Replayed inputs (see REPLAYED below).
    "mpeg2-8k/Base":
        "8524e7e1c6adfa9d7df6637b6e46be90c2ef3a6713501bc0d138fdcb119ca530",
    "mpeg2-8k/TH":
        "f6cf202616660dd9495c867379b57f4caf2026d57e8aed914fc600b11c34742d",
    "mpeg2-8k/Pipe":
        "54d65c14ef889317c607b3c6245c918cc23c2b4edb49051d712b8b0a23c8c4e7",
    "mpeg2-8k/Fast":
        "0d1d62f047e358b11552cba98d42b4d7b0323b548e2ef70a499eb00ec12bab64",
    "mpeg2-8k/3D":
        "9287e4aac7e05b664f4812c45ebd918ebe9518c89d095cfd89ab0130d935570a",
    "mpeg2-8k/3D-noTH":
        "b5e4459ab23d16b670d43cb1062fa70451962648166a70003995b5d836e0ff99",
    "yacr2-8k/Base":
        "faa5cdc3b2280782862a695c2dc52ba5b8dacc4e8cec6380851806e7d9883bfb",
    "yacr2-8k/3D":
        "91602706579ebf7fe5043452f996850a7fee16f3bab2aad19d75ca221ed0e2d8",
    "yacr2-8k/TH-dynamic":
        "09357d85527f781ab6179714ba496694415726216b3487d3293b0f032242317f",
    "yacr2-8k/TH-static":
        "434e71eb7cd4f53472848ed1f822dd5317cd6e0d79f36cf31458c6c93684af16",
    "yacr2-8k/TH-oracle":
        "128cf21be8659af31d42b3664097f56f433335b54efdcb5f66d06831adb80d26",
    "yacr2-4k/TH-tiny-dynamic":
        "e4f543c716076fdd760e245f306fae8e1b0bcd15393cc9aae0e89d2b7093a9ef",
    "yacr2-4k/TH-tiny-static":
        "d57b1a33d804c99b8fbb7b50f4b22e84373ebfbf19b0dc2a72f3f2bccc8c0acc",
    "yacr2-4k/TH-tiny-oracle":
        "bf55ca31e9b03f697f6135683e27cb25cf1451183b41fce8b1bfee36643343b5",
    "adpcm-40/TH":
        "11b1008c72c4d49fbc7e72fc3958fb6187f4c9a3f100630c74164561e07f62d0",
    "one/Base":
        "44f416ddf3f29fc1ba705f60bde76bdec125521c544a681fda576575b4a11fb6",
}


def _predictor_config(kind, **fields):
    return dataclasses.replace(CONFIGS["TH"], width_predictor_kind=kind,
                               **fields)


def _replayed_inputs():
    """``key -> ((benchmark, length) or None, config, warmup)``; ``None``
    is the single-instruction trace."""
    inputs = {}
    for label, config in CONFIGS.items():
        inputs[f"mpeg2-8k/{label}"] = (("mpeg2", 8_000), config, 2_000)
    for label in ("Base", "3D"):
        inputs[f"yacr2-8k/{label}"] = (("yacr2", 8_000), CONFIGS[label], 2_000)
    for kind in WidthPredictorKind:
        inputs[f"yacr2-8k/TH-{kind.value}"] = (
            ("yacr2", 8_000), _predictor_config(kind), 2_000)
    # 4-entry, 1-bit tables maximize aliasing and saturation flips; the
    # warmup crosses the stats reset in a heavily wrapped counter state.
    for kind in WidthPredictorKind:
        inputs[f"yacr2-4k/TH-tiny-{kind.value}"] = (
            ("yacr2", 4_000),
            _predictor_config(kind, width_predictor_entries=4,
                              width_counter_bits=1),
            1_000,
        )
    inputs["adpcm-40/TH"] = (("adpcm", 40), CONFIGS["TH"], 0)
    inputs["one/Base"] = (None, CONFIGS["Base"], 0)
    return inputs


REPLAYED = _replayed_inputs()

ROUND_ROBIN = dataclasses.replace(
    CONFIGS["TH"], scheduler_policy=AllocationPolicy.ROUND_ROBIN
)


def _high_register_trace() -> CompiledTrace:
    """Register ids far above the architectural 64, up to int16's limit.

    The timing core sizes its per-register state from the trace, so ids
    the emulator never emits must still replay.  Values alternate
    between low and full width so the memoization bits matter.
    """
    wide = 1 << 40
    regs = (3, 64, 200, 1_000, 32_767)
    rows = []
    for i in range(60):
        src = regs[i % len(regs)]
        dst = regs[(i + 2) % len(regs)]
        value = wide if i % 3 == 0 else i
        rows.append(trace_row(
            pc=0x1000 + 4 * (i % 12), op=OpClass.IALU, srcs=(src, regs[1]),
            dst=dst, result=value, src_values=(value, i)))
        if i % 7 == 3:
            rows.append(trace_row(
                pc=0x2000 + 4 * (i % 5), op=OpClass.LOAD, srcs=(dst,),
                dst=regs[4], result=i, src_values=(0x2AAA_0000_1000,),
                mem_addr=0x2AAA_0000_1000 + 8 * i, mem_value=i))
    return compile_trace("high-registers", rows)


@functools.lru_cache(maxsize=None)
def _trace(spec):
    if spec is None:
        return compile_trace("one", [
            trace_row(pc=0x1000, op=OpClass.IALU, dst=1, result=3),
        ])
    return generate(*spec)


@pytest.fixture(scope="module")
def traces():
    return {name: generate(name, length=LENGTH) for name in BENCHMARKS}


@pytest.fixture(scope="module")
def predecoded(traces):
    return {name: predecode(trace) for name, trace in traces.items()}


def _digest(result, capture=None) -> str:
    digest = hashlib.sha256(pickle.dumps(result, protocol=4))
    if capture is not None:
        for column in CAPTURE_COLUMNS:
            digest.update(capture.deltas(column).tobytes())
        digest.update(capture.cycle_deltas().tobytes())
    return digest.hexdigest()


def _run(pre, config, warmup=WARMUP, capture=None):
    return TimingSimulator(config).run_compiled(
        pre, warmup=warmup, capture=capture
    )


def test_simulator_version_matches_the_recording():
    assert SIMULATOR_VERSION == 1


@pytest.mark.parametrize("trace_name", BENCHMARKS)
@pytest.mark.parametrize("label", list(CONFIGS))
def test_configuration_digest(predecoded, trace_name, label):
    result = _run(predecoded[trace_name], CONFIGS[label])
    assert _digest(result) == GOLDEN[f"{trace_name}/{label}"]


@pytest.mark.parametrize("kind", [WidthPredictorKind.STATIC,
                                  WidthPredictorKind.ORACLE])
def test_predictor_kind_digest(predecoded, kind):
    result = _run(predecoded["mcf"], _predictor_config(kind))
    assert _digest(result) == GOLDEN[f"mcf/TH-{kind.value}"]


def test_interval_capture_digest(predecoded):
    capture = IntervalCapture(INTERVAL)
    result = _run(predecoded["mpeg2"], CONFIGS["TH"], capture=capture)
    assert _digest(result, capture) == GOLDEN["mpeg2/TH-capture"]


@pytest.mark.parametrize("key", list(REPLAYED))
def test_replayed_input_digest(key):
    spec, config, warmup = REPLAYED[key]
    result = simulate(_trace(spec), config, warmup=warmup)
    assert _digest(result) == GOLDEN[key]


def test_round_robin_digest(predecoded):
    result = _run(predecoded["mpeg2"], ROUND_ROBIN)
    assert _digest(result) == GOLDEN["mpeg2/TH-round_robin"]


def test_round_robin_capture_digest(predecoded):
    capture = IntervalCapture(INTERVAL)
    result = _run(predecoded["mpeg2"], ROUND_ROBIN, capture=capture)
    assert _digest(result, capture) == GOLDEN["mpeg2/TH-round_robin-capture"]


@pytest.mark.parametrize("label", ["TH", "Base"])
def test_high_register_ids_replay(label):
    result = simulate(_high_register_trace(), CONFIGS[label])
    assert result.instructions == len(_high_register_trace())
    assert _digest(result) == GOLDEN[f"high-registers/{label}"]


def test_warmup_bound_error():
    pre = predecode(generate("adpcm", length=40))
    with pytest.raises(ValueError, match="warmup"):
        _run(pre, CONFIGS["Base"], warmup=40)


def test_simulate_accepts_compiled_trace():
    """``simulate`` is the core run on the trace's pre-decoded columns."""
    trace = generate("adpcm", length=600)
    config = CONFIGS["TH"]
    via_simulate = simulate(trace, config, warmup=100)
    via_core = _run(predecode(generate("adpcm", length=600)), config,
                    warmup=100)
    assert pickle.dumps(via_core) == pickle.dumps(via_simulate)


class TestMemoryHierarchy:
    """The core reads precomputed miss columns: once the trace's walks
    are cached, a simulation makes no cache or TLB access at all."""

    def test_batched_simulate_builds_no_hierarchy(self, traces, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the timing loop accessed a cache")

        pre = predecode(traces["mpeg2"])
        _run(pre, CONFIGS["3D"])  # fills the front-end and memory walks
        monkeypatch.setattr(caches.SetAssociativeCache, "walk", refuse)
        result = simulate(traces["mpeg2"], CONFIGS["3D"], warmup=WARMUP)
        assert _digest(result) == GOLDEN["mpeg2/3D"]
