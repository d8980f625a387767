"""Tests for experiment result exports."""

import csv
import io
import json

import pytest

from repro.experiments.context import ExperimentContext, ExperimentSettings
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.table2 import run_table2
from repro.experiments.export import (
    figure8_rows,
    figure9_rows,
    figure10_rows,
    table2_rows,
    to_csv,
    to_json,
    write_rows,
)

TINY = ExperimentSettings(
    trace_length=4_000,
    warmup=1_200,
    benchmarks=("mpeg2", "mcf"),
    thermal_grid=32,
)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(TINY)


class TestRowExtraction:
    def test_table2_rows(self):
        rows = table2_rows(run_table2())
        assert len(rows) >= 15
        assert {"block", "latency_2d_ps", "improvement"} <= set(rows[0])

    def test_figure8_rows(self, context):
        rows = figure8_rows(run_figure8(context))
        assert len(rows) == 2
        assert "speedup_3d" in rows[0]
        assert "ipc_base" in rows[0]

    def test_figure9_rows(self, context):
        rows = figure9_rows(run_figure9(context))
        assert all(row["herding_watts"] < row["planar_watts"] for row in rows)

    def test_figure10_rows(self, context):
        rows = figure10_rows(run_figure10(context, candidates=["mpeg2"]))
        assert {row["config"] for row in rows} == {"Base", "3D-noTH", "3D"}


class TestSerialization:
    ROWS = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_json_roundtrip(self):
        assert json.loads(to_json(self.ROWS)) == self.ROWS

    def test_csv_shape(self):
        parsed = list(csv.DictReader(io.StringIO(to_csv(self.ROWS))))
        assert parsed == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]

    def test_csv_empty(self):
        assert to_csv([]) == ""

    def test_write_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_rows(self.ROWS, str(path))
        assert json.loads(path.read_text()) == self.ROWS

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_rows(self.ROWS, str(path))
        assert "a,b" in path.read_text()

    def test_write_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows(self.ROWS, str(tmp_path / "out.parquet"))
