"""Columnar trace compilation: exact round-trips and strictness.

The compiled form is only allowed to exist if it is *exact*: every
instruction must survive ``compile_trace`` -> ``to_trace`` unchanged,
traces outside the fixed-width layout must refuse to compile (and so
cannot be simulated), and damaged on-disk entries must raise
``TraceReadError`` rather than deliver garbage into a simulation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.isa.compiled import (
    TRACE_DTYPE,
    TRACE_SCHEMA_VERSION,
    TraceCompileError,
    TraceReadError,
    compile_trace,
    meta_path_for,
    read_compiled,
    rows_to_array,
    write_compiled,
)
from repro.isa.instruction import MAX_SOURCES, TraceInstruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import Trace
from repro.workloads.suite import generate


def _roundtrip(trace: Trace) -> Trace:
    return compile_trace(trace).to_trace()


class TestRoundTrip:
    def test_generated_trace_roundtrips_exactly(self):
        trace = generate("mpeg2", length=2_000)
        back = _roundtrip(trace)
        assert back.name == trace.name
        assert back.benchmark_class == trace.benchmark_class
        assert back.seed == trace.seed
        assert back.instructions == trace.instructions

    def test_every_benchmark_class_is_compilable(self):
        for name in ("gzip", "swim", "adpcm", "susan", "yacr2", "blast"):
            trace = generate(name, length=400)
            assert _roundtrip(trace).instructions == trace.instructions

    def test_optional_fields_preserve_none(self):
        insts = [
            TraceInstruction(pc=0x1000, op=OpClass.IALU, dst=3, result=7,
                             srcs=(1, 2), src_values=(5, 9)),
            TraceInstruction(pc=0x1004, op=OpClass.BRANCH, taken=False),
            TraceInstruction(pc=0x1008, op=OpClass.STORE, mem_addr=0x2000,
                             mem_value=None, srcs=(3,), src_values=(7,)),
            TraceInstruction(pc=0x100C, op=OpClass.NOP),
        ]
        back = _roundtrip(Trace("edge", insts, "unknown", seed=None))
        for a, b in zip(back.instructions, insts):
            assert a == b
        assert back.instructions[1].target is None
        assert back.instructions[2].mem_value is None
        assert back.instructions[3].dst is None

    def test_width_boundary_values_roundtrip(self):
        # The 16-bit significance boundary (2**15) and both u64 extremes.
        values = [0, (1 << 15) - 1, 1 << 15, (1 << 64) - (1 << 15),
                  (1 << 64) - (1 << 15) - 1, (1 << 64) - 1]
        insts = [
            TraceInstruction(pc=0x1000 + 4 * i, op=OpClass.IALU, dst=1,
                             result=v, srcs=(2,), src_values=(v,))
            for i, v in enumerate(values)
        ]
        back = _roundtrip(Trace("widths", insts))
        for inst, v in zip(back.instructions, values):
            assert inst.result == v
            assert inst.src_values == (v,)

    def test_empty_trace(self):
        compiled = compile_trace(Trace("empty", []))
        assert len(compiled) == 0
        assert compiled.to_trace().instructions == []


class TestStrictness:
    def test_too_many_sources_refuses(self):
        inst = TraceInstruction(pc=0x1000, op=OpClass.IALU,
                                srcs=(1, 2, 3), src_values=(1, 2, 3))
        with pytest.raises(TraceCompileError, match=f"{MAX_SOURCES}-column"):
            compile_trace(Trace("wide", [inst]))

    def test_value_outside_u64_refuses(self):
        inst = TraceInstruction(pc=0x1000, op=OpClass.IALU, dst=1,
                                result=1 << 64)
        with pytest.raises(TraceCompileError, match="64-bit"):
            compile_trace(Trace("big", [inst]))

    @pytest.mark.parametrize("srcs,dst", [
        ((-5,), None),
        ((1, 1 << 15), None),
        ((), -5),
        ((), 1 << 15),
    ])
    def test_register_outside_int16_refuses(self, srcs, dst):
        inst = TraceInstruction(pc=0x1000, op=OpClass.IALU, srcs=srcs, dst=dst)
        with pytest.raises(TraceCompileError, match="int16"):
            compile_trace(Trace("regs", [inst]))

    @pytest.mark.parametrize("field", ["pc", "result", "src_values",
                                       "mem_addr", "mem_value", "target"])
    def test_negative_value_refuses(self, field):
        fields = dict(pc=0x1000, op=OpClass.LOAD, srcs=(1,), dst=2,
                      result=0, src_values=(0,), mem_addr=0x2000,
                      mem_value=0, taken=False, target=0x3000)
        fields[field] = (-1,) if field == "src_values" else -1
        with pytest.raises(TraceCompileError, match="64-bit"):
            compile_trace(Trace("negative", [TraceInstruction(**fields)]))

    @pytest.mark.parametrize("field,value", [
        ("pc", -1),
        ("result", 1 << 64),
        ("mem_addr", -(1 << 63)),
        ("target", (1 << 64) + 5),
        ("op", 256),
        ("src0", 1 << 15),
        ("dst", -(1 << 15) - 1),
    ])
    def test_row_outside_its_column_refuses(self, field, value):
        """The emulator's rows go straight to the array builder: a value
        its column cannot hold raises, whatever the column."""
        row = [0x1000, 1, 1, 1, 2, 0, 3, 7, 5, 0,
               False, 0, False, 0, False, False, 0]
        assert rows_to_array([tuple(row)])["pc"][0] == 0x1000
        row[TRACE_DTYPE.names.index(field)] = value
        with pytest.raises(TraceCompileError,
                           match="outside the unsigned 64-bit range"):
            rows_to_array([tuple(row)])

    def test_uncompilable_trace_cannot_be_simulated(self):
        from repro.cpu.config import baseline_config
        from repro.cpu.pipeline import simulate

        inst = TraceInstruction(pc=0x1000, op=OpClass.IALU,
                                srcs=(1, 2, 3), src_values=(1, 2, 3))
        trace = Trace("wide", [inst])
        with pytest.raises(TraceCompileError, match=f"{MAX_SOURCES}-column"):
            simulate(trace, baseline_config())
        with pytest.raises(TraceCompileError):
            trace.compiled()  # nothing memoized; still refuses

    def test_compilable_trace_memoizes_instance(self):
        trace = generate("adpcm", length=200)
        assert trace.compiled() is trace.compiled()


class TestOnDisk:
    def _write(self, tmp_path, length=300):
        compiled = compile_trace(generate("adpcm", length=length))
        npy = tmp_path / "entry.npy"
        write_compiled(compiled, npy)
        return compiled, npy

    def test_write_read_roundtrip_mmap(self, tmp_path):
        compiled, npy = self._write(tmp_path)
        loaded = read_compiled(npy)
        assert loaded.name == compiled.name
        assert loaded.benchmark_class == compiled.benchmark_class
        assert loaded.seed == compiled.seed
        assert loaded.array.dtype == TRACE_DTYPE
        assert isinstance(loaded.array, np.memmap)
        assert np.array_equal(np.asarray(loaded.array), compiled.array)
        assert loaded.to_trace().instructions == \
            compiled.to_trace().instructions

    def test_missing_meta_raises(self, tmp_path):
        _, npy = self._write(tmp_path)
        (tmp_path / "entry.json").unlink()
        with pytest.raises(TraceReadError, match="metadata"):
            read_compiled(npy)

    def test_schema_drift_raises(self, tmp_path):
        import json

        _, npy = self._write(tmp_path)
        meta_path = tmp_path / "entry.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = TRACE_SCHEMA_VERSION + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(TraceReadError, match="schema"):
            read_compiled(npy)

    def test_corrupt_array_raises(self, tmp_path):
        _, npy = self._write(tmp_path)
        npy.write_bytes(b"this is not a npy file")
        with pytest.raises(TraceReadError):
            read_compiled(npy)

    def test_truncated_array_raises(self, tmp_path):
        _, npy = self._write(tmp_path)
        data = npy.read_bytes()
        npy.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceReadError):
            read_compiled(npy)

    def test_length_mismatch_raises(self, tmp_path):
        import json

        _, npy = self._write(tmp_path)
        meta_path = tmp_path / "entry.json"
        meta = json.loads(meta_path.read_text())
        meta["length"] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(TraceReadError, match="rows"):
            read_compiled(npy)

    def test_meta_path_for(self):
        assert meta_path_for("/x/abc.npy") == "/x/abc.json"
        assert meta_path_for("/x/abc") == "/x/abc.json"
