"""Table 2: 2D vs 3D block latencies and derived clock frequencies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.circuits.blocks import BlockModel, build_block_models
from repro.circuits.frequency import FrequencyPlan, derive_frequencies

#: Paper values the reproduction is checked against.
PAPER_F2D_GHZ = 2.66
PAPER_F3D_GHZ = 3.93
PAPER_FREQUENCY_GAIN = 0.479


@dataclass
class Table2Result:
    """All block timings plus the frequency derivation."""

    blocks: Dict[str, BlockModel]
    frequencies: FrequencyPlan

    @property
    def wakeup_improvement(self) -> float:
        return self.blocks["wakeup_select_loop"].timing.improvement

    @property
    def alu_bypass_improvement(self) -> float:
        return self.blocks["alu_bypass_loop"].timing.improvement

    @property
    def frequency_gain(self) -> float:
        return self.frequencies.speedup - 1.0

    def format(self) -> str:
        header = (
            f"{'Block':<22s} {'2D (ps)':>9s} {'3D (ps)':>9s} "
            f"{'improve':>8s} {'E2D (pJ)':>9s} {'E3D (pJ)':>9s}"
        )
        lines = ["Table 2: 2D vs 3D block latency and energy", header, "-" * len(header)]
        for name, model in sorted(self.blocks.items()):
            t = model.timing
            marker = " *" if name in ("wakeup_select_loop", "alu_bypass_loop") else ""
            lines.append(
                f"{name:<22s} {t.latency_2d_ps:9.1f} {t.latency_3d_ps:9.1f} "
                f"{t.improvement:7.1%} {t.energy_2d_pj:9.2f} {t.energy_3d_pj:9.2f}{marker}"
            )
        lines.append("* frequency-determining critical loop")
        lines.append(
            f"clock: {self.frequencies.f2d_ghz:.2f} GHz -> {self.frequencies.f3d_ghz:.2f} GHz "
            f"(+{self.frequency_gain:.1%}); paper: {PAPER_F2D_GHZ} -> {PAPER_F3D_GHZ} "
            f"(+{PAPER_FREQUENCY_GAIN:.1%})"
        )
        return "\n".join(lines)


def run_table2() -> Table2Result:
    """Evaluate every block model and derive the two clock frequencies."""
    blocks = build_block_models()
    return Table2Result(blocks=blocks, frequencies=derive_frequencies(blocks))
