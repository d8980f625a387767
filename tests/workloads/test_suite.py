"""Tests for the named benchmark suite."""

import pytest

from repro.workloads.parameters import BenchmarkClass, CLASS_PARAMETERS
from repro.workloads.suite import (
    BENCHMARKS,
    benchmark_names,
    benchmarks_in_class,
    generate,
)
from repro.workloads.validation import TraceStats


class TestRegistry:
    def test_24_benchmarks(self):
        assert len(BENCHMARKS) == 24

    def test_four_per_class(self):
        for klass in BenchmarkClass:
            assert len(benchmarks_in_class(klass)) == 4

    def test_paper_named_apps_present(self):
        for name in ("mpeg2", "yacr2", "susan", "mcf", "crafty", "patricia"):
            assert name in BENCHMARKS

    def test_seeds_unique(self):
        seeds = [spec.seed for spec in BENCHMARKS.values()]
        assert len(seeds) == len(set(seeds))

    def test_overrides_are_valid_fields(self):
        for spec in BENCHMARKS.values():
            spec.parameters()  # raises on an invalid override key

    def test_names_function(self):
        assert benchmark_names() == list(BENCHMARKS)


class TestGeneration:
    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            generate("nonesuch")

    def test_generate_defaults(self):
        trace = generate("adpcm", length=500)
        assert len(trace) == 500
        assert trace.benchmark_class == "MediaBench"

    def test_seed_override_changes_trace(self):
        a = generate("adpcm", length=500)
        b = generate("adpcm", length=500, seed=999)
        assert a.array["result"].tolist() != b.array["result"].tolist()

    def test_reproducible(self):
        a = generate("gzip", length=400)
        b = generate("gzip", length=400)
        assert a.array["pc"].tolist() == b.array["pc"].tolist()


class TestClassCharacter:
    """Directional checks that the classes behave as the paper needs."""

    @pytest.fixture(scope="class")
    def stats(self):
        return {
            name: TraceStats.from_trace(generate(name, length=5000))
            for name in ("mpeg2", "susan", "mcf", "yacr2", "swim", "hmmer")
        }

    def test_media_narrower_than_pointer(self, stats):
        assert stats["mpeg2"].low_width_result_fraction > stats["yacr2"].low_width_result_fraction

    def test_fp_class_memory_heavy(self, stats):
        assert stats["swim"].memory_fraction > 0.2

    def test_mcf_memory_heavy(self, stats):
        assert stats["mcf"].memory_fraction > stats["susan"].memory_fraction

    def test_all_have_near_targets(self, stats):
        for name, s in stats.items():
            assert s.near_target_fraction > 0.8, name

    def test_footprints_ordered(self):
        assert (BENCHMARKS["mcf"].parameters().footprint_bytes
                > BENCHMARKS["mpeg2"].parameters().footprint_bytes)
