"""Trace rows: exact packing and strictness.

A trace is only allowed to exist if its rows are *exact*: every
emitted row must be one :func:`trace_row` rebuilds unchanged from the
instruction it describes, instructions outside the fixed-width layout
must refuse to become rows (and so cannot be simulated), and damaged
on-disk entries must raise ``TraceReadError`` rather than deliver
garbage into a simulation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.isa.builder import TraceBuilder
from repro.isa.compiled import (
    MAX_SOURCES,
    OPCLASS_LIST,
    TRACE_DTYPE,
    TRACE_SCHEMA_VERSION,
    TraceCompileError,
    TraceReadError,
    compile_trace,
    meta_path_for,
    read_compiled,
    rows_to_array,
    trace_row,
    write_compiled,
)
from repro.isa.opcodes import OpClass
from repro.workloads.suite import generate


def _instruction(row: tuple) -> dict:
    """The :func:`trace_row` arguments that describe ``row``."""
    (pc, op, nsrcs, nvals, src0, src1, dst, result, sval0, sval1,
     has_mem_addr, mem_addr, has_mem_value, mem_value, taken,
     has_target, target) = row
    return dict(
        pc=pc, op=OPCLASS_LIST[op], srcs=(src0, src1)[:nsrcs],
        dst=None if dst < 0 else dst, result=result,
        src_values=(sval0, sval1)[:nvals],
        mem_addr=mem_addr if has_mem_addr else None,
        mem_value=mem_value if has_mem_value else None,
        taken=taken, target=target if has_target else None,
    )


def _rebuilds_exactly(trace) -> bool:
    rows = trace.array.tolist()
    rebuilt = compile_trace(trace.name,
                            [trace_row(**_instruction(row)) for row in rows])
    return rebuilt.array.tobytes() == trace.array.tobytes()


class TestRoundTrip:
    def test_generated_trace_roundtrips_exactly(self):
        assert _rebuilds_exactly(generate("mpeg2", length=2_000))

    def test_every_benchmark_class_is_compilable(self):
        for name in ("gzip", "swim", "adpcm", "susan", "yacr2", "blast"):
            assert _rebuilds_exactly(generate(name, length=400)), name

    def test_optional_fields_preserve_none(self):
        insts = [
            dict(pc=0x1000, op=OpClass.IALU, dst=3, result=7,
                 srcs=(1, 2), src_values=(5, 9)),
            dict(pc=0x1004, op=OpClass.BRANCH, taken=False),
            dict(pc=0x1008, op=OpClass.STORE, mem_addr=0x2000,
                 mem_value=None, srcs=(3,), src_values=(7,)),
            dict(pc=0x100C, op=OpClass.NOP),
        ]
        trace = compile_trace("edge", [trace_row(**inst) for inst in insts])
        back = [_instruction(row) for row in trace.array.tolist()]
        for a, b in zip(back, insts):
            assert {k: a[k] for k in b} == b
        assert back[1]["target"] is None
        assert back[2]["mem_value"] is None
        assert back[3]["dst"] is None

    def test_width_boundary_values_roundtrip(self):
        # The 16-bit significance boundary (2**15) and both u64 extremes.
        values = [0, (1 << 15) - 1, 1 << 15, (1 << 64) - (1 << 15),
                  (1 << 64) - (1 << 15) - 1, (1 << 64) - 1]
        rows = [
            trace_row(pc=0x1000 + 4 * i, op=OpClass.IALU, dst=1,
                      result=v, srcs=(2,), src_values=(v,))
            for i, v in enumerate(values)
        ]
        array = compile_trace("widths", rows).array
        assert array["result"].tolist() == values
        assert array["sval0"].tolist() == values

    def test_empty_trace(self):
        compiled = compile_trace("empty", [])
        assert len(compiled) == 0
        assert compiled.array.dtype == TRACE_DTYPE


class TestStrictness:
    def test_too_many_sources_refuses(self):
        with pytest.raises(TraceCompileError, match=f"{MAX_SOURCES}-column"):
            trace_row(pc=0x1000, op=OpClass.IALU,
                      srcs=(1, 2, 3), src_values=(1, 2, 3))

    def test_value_outside_u64_refuses(self):
        with pytest.raises(TraceCompileError, match="64-bit"):
            trace_row(pc=0x1000, op=OpClass.IALU, dst=1, result=1 << 64)

    @pytest.mark.parametrize("srcs,dst", [
        ((-5,), None),
        ((1, 1 << 15), None),
        ((), -5),
        ((), 1 << 15),
    ])
    def test_register_outside_int16_refuses(self, srcs, dst):
        with pytest.raises(TraceCompileError, match="int16"):
            trace_row(pc=0x1000, op=OpClass.IALU, srcs=srcs, dst=dst)

    @pytest.mark.parametrize("field", ["pc", "result", "src_values",
                                       "mem_addr", "mem_value", "target"])
    def test_negative_value_refuses(self, field):
        fields = dict(pc=0x1000, op=OpClass.LOAD, srcs=(1,), dst=2,
                      result=0, src_values=(0,), mem_addr=0x2000,
                      mem_value=0, taken=False, target=0x3000)
        fields[field] = (-1,) if field == "src_values" else -1
        with pytest.raises(TraceCompileError, match="64-bit"):
            trace_row(**fields)

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
        """An instruction the columns cannot hold never becomes a row,
        so no trace holding it reaches the core."""
        builder = TraceBuilder("wide").alu(1, 5)
        with pytest.raises(TraceCompileError, match=f"{MAX_SOURCES}-column"):
            builder.alu(2, 6, srcs=(1, 2, 3))
        assert len(builder.build()) == 1

    def test_compilable_trace_memoizes_instance(self):
        """``compiled()`` is the trace itself: the benchmark harness
        still calls it on generated traces."""
        trace = generate("adpcm", length=200)
        assert trace.compiled() is trace


class TestOnDisk:
    def _write(self, tmp_path, length=300):
        compiled = generate("adpcm", length=length)
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
