"""Tests for the approximate CPI stack."""

import pytest

from repro.cpu.config import baseline_config, full_3d_config
from repro.cpu.pipeline import simulate
from repro.workloads.microbench import narrow_alu, pointer_chase, width_flip
from repro.workloads.suite import generate


class TestAccounting:
    def test_stack_sums_to_cycles(self, base_run):
        assert sum(base_run.cpi_stack.values()) == base_run.cycles

    def test_breakdown_sums_to_cpi(self, base_run):
        total = sum(base_run.cpi_breakdown().values())
        assert total == pytest.approx(base_run.cycles / base_run.instructions)

    def test_categories_known(self, base_run):
        known = {"base", "branch", "memory", "frontend", "dependency",
                 "structural", "width"}
        assert set(base_run.cpi_stack) <= known

    def test_empty_result_safe(self):
        from repro.cpu.results import SimulationResult
        from repro.core.activity import ActivityCounters
        from repro.cpu.branch_predictor import BranchStats
        empty = SimulationResult(
            benchmark="x", benchmark_class="c", config_name="base",
            clock_ghz=1.0, instructions=0, cycles=0,
            activity=ActivityCounters(), branch_stats=BranchStats(),
        )
        assert empty.cpi_breakdown() == {}


class TestAttributionShape:
    def test_memory_bound_app_blames_memory(self):
        trace = generate("mcf", length=8000)
        result = simulate(trace, baseline_config(), warmup=2500)
        stack = result.cpi_breakdown()
        assert stack.get("memory", 0.0) == max(stack.values())

    def test_chase_kernel_blames_memory_or_dependency(self):
        result = simulate(pointer_chase(128), baseline_config())
        stack = result.cpi_breakdown()
        blamed = stack.get("memory", 0.0) + stack.get("dependency", 0.0)
        assert blamed > 0.5 * sum(stack.values())

    def test_clean_kernel_mostly_base(self):
        result = simulate(narrow_alu(128), baseline_config())
        stack = result.cpi_breakdown()
        assert stack.get("base", 0.0) >= 0.4 * sum(stack.values())

    def test_width_category_only_under_th(self):
        trace = width_flip(128)
        base = simulate(trace, baseline_config())
        herded = simulate(trace, full_3d_config())
        assert "width" not in base.cpi_stack
        assert herded.cpi_stack.get("width", 0) > 0

    def test_warmup_resets_stack(self):
        trace = generate("mpeg2", length=8000)
        result = simulate(trace, baseline_config(), warmup=4000)
        assert sum(result.cpi_stack.values()) == result.cycles
