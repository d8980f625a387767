"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        expected = {"table2", "figure8", "figure9", "figure10", "density",
                    "width", "dvfs", "roadmap", "report", "simulate",
                    "trace", "list", "sensitivity", "transient", "stacking",
                    "mechanisms", "cache", "metrics"}
        assert expected <= set(sub.choices)

    def test_experiment_commands_take_jobs(self):
        args = build_parser().parse_args(["figure8", "--fast", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["report", "--fast"])
        assert args.jobs is None

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "GHz" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mpeg2" in out
        assert "SPECint2000" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "adpcm", "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_simulate_unknown_config(self, capsys):
        assert main(["simulate", "adpcm", "--config", "Warp9"]) == 2

    def test_cache_info_and_clear(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out

    def test_metrics_snapshot_to_stdout(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["metrics"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["schema"] == 3
        assert snapshot["cache"]["enabled"] is True
        assert snapshot["cache"]["entries"] == 0
        assert "counters" in snapshot["cache"]
        assert "factorizations" in snapshot

    def test_metrics_snapshot_to_file(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_file = tmp_path / "metrics.json"
        assert main(["metrics", "--out", str(out_file)]) == 0
        snapshot = json.loads(out_file.read_text(encoding="utf-8"))
        assert snapshot["cache"]["size_bytes"] == 0

    def test_metrics_with_cache_disabled(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE", "0")
        assert main(["metrics"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["cache"] == {"enabled": False}

    def test_trace_roundtrip(self, tmp_path, capsys):
        output = tmp_path / "x.npy"
        assert main(["trace", "adpcm", "--length", "500", "-o", str(output)]) == 0
        assert output.exists()
        from repro.isa.compiled import read_compiled
        from repro.workloads.suite import generate

        trace = read_compiled(output)  # checks the sidecar's CRC-32
        assert len(trace) == 500
        assert trace.array.tobytes() == \
            generate("adpcm", length=500).array.tobytes()
