"""Tests for the command-line interface."""

import sys

import pytest

import repro.cli
from repro.cli import COMMANDS, build_parser, main

#: Representative command lines, at least one per subcommand.
ARGVS = [
    ["table2"],
    ["figure8", "--fast", "--jobs", "4"],
    ["figure9", "-j", "2"],
    ["figure10", "--fast"],
    ["density"],
    ["width", "--fast", "-j", "1"],
    ["dvfs", "--jobs", "3"],
    ["roadmap", "--fast"],
    ["leakage"],
    ["pairing", "--fast", "--jobs", "2"],
    ["sensitivity", "--fast"],
    ["transient", "-j", "2"],
    ["interval", "--fast"],
    ["stacking"],
    ["mechanisms"],
    ["report"],
    ["report", "--fast", "--jobs", "2", "-o", "r.md", "--stats", "s.json",
     "--log-json", "e.jsonl", "--profile"],
    ["report", "--output", "r.md", "--profile", "5"],
    ["metrics"],
    ["metrics", "--out", "m.json"],
    ["cache"],
    ["cache", "prune"],
    ["simulate", "adpcm"],
    ["simulate", "mcf", "--config", "Base", "--length", "3000"],
    ["trace", "swim", "--length", "500", "-o", "t.npy"],
    ["list"],
]


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


class TestOneSubcommandParser:
    """``main`` builds only the invoked subcommand's parser; it must
    parse like the full tree and keep the full tree's messages."""

    def test_every_subcommand_is_covered(self):
        assert len(COMMANDS) == 21
        assert {argv[0] for argv in ARGVS} == set(COMMANDS)

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_namespace_as_the_full_tree(self, argv):
        one = build_parser(argv[0])
        assert set(next(a for a in one._actions
                        if a.dest == "command").choices) == {argv[0]}
        assert one.parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_same_usage_as_the_full_tree(self, name):
        assert build_parser(name).format_usage() == build_parser().format_usage()

    def test_main_builds_only_the_invoked_parser(self, monkeypatch, capsys):
        built = []

        def recording(command=None):
            built.append(command)
            return build_parser(command)

        monkeypatch.setattr(repro.cli, "build_parser", recording)
        assert main(["list"]) == 0
        with pytest.raises(SystemExit):
            main(["--fast", "list"])
        assert built == ["list", None]

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and line.split()}
        assert set(COMMANDS) <= listed

    def test_unknown_command_exits_2_with_every_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nosuch'" in err
        assert all(repr(name) in err for name in COMMANDS)

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["repro", "list"])
        assert main() == 0
        assert "mpeg2" in capsys.readouterr().out


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
        assert snapshot["schema"] == 6
        assert snapshot["cache"]["enabled"] is True
        assert snapshot["cache"]["entries"] == 0
        assert snapshot["cache"]["size_bytes"] == 0

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
        import json
        import zlib

        import numpy as np

        from repro.workloads.suite import generate

        array = np.load(output)
        meta = json.loads(output.with_suffix(".json").read_text())
        assert len(array) == meta["length"] == 500
        assert zlib.crc32(array.tobytes()) == meta["crc32"]
        assert array.tobytes() == generate("adpcm", length=500).array.tobytes()
