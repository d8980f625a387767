"""Per-block latency and energy models for the 2D and 3D processors.

Every microarchitectural block the paper times (Table 2) has a model here
that yields a :class:`BlockTiming` with the planar latency/energy, the
4-die 3D latency/energy, and the 3D "top die only" energy used when
Thermal Herding gates the lower dies.  Array-style blocks reuse
:class:`~repro.circuits.arrays.ArrayModel`; the critical loops
(wakeup-select, ALU+bypass) and the rename logic are modelled explicitly
since their wire structure determines the clock frequency result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.circuits.arrays import ArrayModel, PartitionMode
from repro.circuits.technology import Technology, TECH_65NM
from repro.circuits.wires import wire_delay_ps, wire_energy_pj

#: Datapath bit pitch (um) of the 64-bit integer cluster.
_BIT_PITCH_UM = 16.0
#: Height of one reservation-station entry (um) along the tag bus.
_RS_ENTRY_HEIGHT_UM = 58.0
#: Execution-cluster result-bus span in 2D (um).
_BYPASS_SPAN_2D_UM = 2800.0
#: Operand distribution wire in 2D (um); becomes a via hop in 3D.
_OPERAND_DIST_2D_UM = 500.0
#: Pipeline latch + setup overhead charged to every loop (FO4).
_LATCH_FO4 = 0.45


@dataclass(frozen=True)
class BlockTiming:
    """Evaluated 2D/3D latency and energy of one block."""

    name: str
    latency_2d_ps: float
    latency_3d_ps: float
    energy_2d_pj: float
    energy_3d_pj: float
    energy_3d_top_pj: float
    area_2d_mm2: float
    footprint_3d_mm2: float
    mode: PartitionMode

    @property
    def improvement(self) -> float:
        """Fractional 3D latency improvement (positive = faster)."""
        return 1.0 - self.latency_3d_ps / self.latency_2d_ps


@dataclass(frozen=True)
class BlockModel:
    """A named block plus its evaluated timing."""

    name: str
    timing: BlockTiming
    description: str = ""


def _array_block(name: str, array: ArrayModel, mode: PartitionMode,
                 description: str = "") -> BlockModel:
    planar = array.evaluate(PartitionMode.PLANAR)
    stacked = array.evaluate(mode)
    timing = BlockTiming(
        name=name,
        latency_2d_ps=planar.latency_ps,
        latency_3d_ps=stacked.latency_ps,
        energy_2d_pj=planar.energy_full_pj,
        energy_3d_pj=stacked.energy_full_pj,
        energy_3d_top_pj=stacked.energy_top_pj,
        area_2d_mm2=planar.area_mm2,
        footprint_3d_mm2=stacked.footprint_mm2,
        mode=mode,
    )
    return BlockModel(name=name, timing=timing, description=description)


# --------------------------------------------------------------------- #
# Custom loop models
# --------------------------------------------------------------------- #

def _adder_timings(tech: Technology) -> Dict[str, float]:
    """64-bit Kogge-Stone adder, 2D and word-partitioned 3D.

    Logic depth is unchanged by stacking; only the long wires of the last
    prefix levels shrink (they become d2d via hops), which is why the
    paper reports only a small adder speedup.
    """
    logic_ps = 8.5 * tech.fo4_delay_ps
    # Prefix wires with spans of 16 and 32 bit pitches dominate 2D wiring.
    span16 = 16 * _BIT_PITCH_UM
    span32 = 32 * _BIT_PITCH_UM
    wire_2d = wire_delay_ps(span16, tech) + wire_delay_ps(span32, tech)
    # 3D: 16 bits per die; the long prefix levels map to via hops on a
    # gray-code die ordering, plus residual short wires.
    wire_3d = tech.d2d_via_delay_ps + 6.0
    gates = 2000
    gate_energy = gates * tech.gate_cap_ff * 1e-15 * tech.vdd ** 2 * 1e12 * 0.25
    wire_energy_2d = wire_energy_pj(span16 + span32, tech) * 8
    wire_energy_3d = wire_energy_pj(64 * _BIT_PITCH_UM / 4, tech) * 8
    return {
        "latency_2d": logic_ps + wire_2d,
        "latency_3d": logic_ps + wire_3d,
        "energy_2d": gate_energy + wire_energy_2d,
        "energy_3d": gate_energy + wire_energy_3d,
        "energy_3d_top": (gate_energy + wire_energy_3d) * 0.28,
    }


def _adder_block(tech: Technology) -> BlockModel:
    t = _adder_timings(tech)
    timing = BlockTiming(
        name="int_adder",
        latency_2d_ps=t["latency_2d"],
        latency_3d_ps=t["latency_3d"],
        energy_2d_pj=t["energy_2d"],
        energy_3d_pj=t["energy_3d"],
        energy_3d_top_pj=t["energy_3d_top"],
        area_2d_mm2=0.08,
        footprint_3d_mm2=0.02,
        mode=PartitionMode.WORD_PARTITIONED,
    )
    return BlockModel("int_adder", timing, "64-bit Kogge-Stone adder")


def _alu_bypass_block(tech: Technology) -> BlockModel:
    """The ALU + result-bypass critical loop (Section 5.1.1).

    2D: adder + full-cluster result bus + operand distribution + operand
    mux + latch.  3D: the cluster footprint compacts (the paper quarters
    both bypass dimensions), the operand distribution becomes a via hop.
    """
    adder = _adder_timings(tech)
    mux_ps = 1.0 * tech.fo4_delay_ps
    latch_ps = _LATCH_FO4 * tech.fo4_delay_ps

    bus_2d = wire_delay_ps(_BYPASS_SPAN_2D_UM, tech)
    dist_2d = wire_delay_ps(_OPERAND_DIST_2D_UM, tech)
    latency_2d = adder["latency_2d"] + bus_2d + dist_2d + mux_ps + latch_ps

    bus_3d = wire_delay_ps(_BYPASS_SPAN_2D_UM / 4.0, tech) + tech.d2d_via_delay_ps
    dist_3d = tech.d2d_via_delay_ps
    latency_3d = adder["latency_3d"] + bus_3d + dist_3d + mux_ps + latch_ps

    # Bypass energy: result bus wires for 64 bits (2D) vs 16 bits per die.
    bus_energy_2d = wire_energy_pj(_BYPASS_SPAN_2D_UM, tech) * 64
    bus_energy_3d = wire_energy_pj(_BYPASS_SPAN_2D_UM / 4.0, tech) * 64
    timing = BlockTiming(
        name="alu_bypass_loop",
        latency_2d_ps=latency_2d,
        latency_3d_ps=latency_3d,
        energy_2d_pj=adder["energy_2d"] + bus_energy_2d,
        energy_3d_pj=adder["energy_3d"] + bus_energy_3d,
        energy_3d_top_pj=(adder["energy_3d"] + bus_energy_3d) * 0.28,
        area_2d_mm2=2.6,
        footprint_3d_mm2=0.65,
        mode=PartitionMode.WORD_PARTITIONED,
    )
    return BlockModel("alu_bypass_loop", timing, "execute + result bypass loop")


def _wakeup_select_block(tech: Technology, rs_entries: int = 32) -> BlockModel:
    """The instruction scheduler wakeup-select critical loop.

    2D: tag broadcast down all RS entries, CAM compare, ready logic,
    select tree over all entries, grant wire back.  3D (entry-stacked):
    a quarter of the entries per die shortens the broadcast bus and the
    per-die select; a final cross-die select level goes through vias.
    """
    fo4 = tech.fo4_delay_ps
    bus_2d_um = rs_entries * _RS_ENTRY_HEIGHT_UM
    broadcast_2d = wire_delay_ps(bus_2d_um, tech)
    compare_ps = (3.0 + math.log(2 * rs_entries, 4)) * fo4
    ready_ps = 2.0 * fo4
    select_2d = math.log2(rs_entries) * 1.2 * fo4
    grant_2d = wire_delay_ps(bus_2d_um / 2.0, tech)
    latency_2d = broadcast_2d + compare_ps + ready_ps + select_2d + grant_2d

    per_die = max(1, rs_entries // 4)
    bus_3d_um = per_die * _RS_ENTRY_HEIGHT_UM
    broadcast_3d = wire_delay_ps(bus_3d_um, tech) + tech.d2d_via_delay_ps
    # The tag driver must still be sized for the via load plus four dies of
    # comparators (through per-die buffers), so the compare stage keeps the
    # planar electrical effort.
    compare_3d = compare_ps
    # Per-die pre-select plus one cross-die arbitration level through vias.
    select_3d = (math.log2(per_die) * 1.2 + 1.0) * fo4 + tech.d2d_via_delay_ps
    grant_3d = wire_delay_ps(bus_3d_um / 2.0, tech)
    latency_3d = broadcast_3d + compare_3d + ready_ps + select_3d + grant_3d

    # Tag broadcast energy: the wakeup CAM is a notorious power-density
    # hotspot — tag bus wires, 2 comparators per entry, ready/request
    # logic, and the select tree, all switching at full clock rate.
    cam_pj_2d = wire_energy_pj(bus_2d_um, tech) * 8 + rs_entries * 0.22
    # 3D: each die's tag driver sees a quarter of the wire load, and the
    # request/grant/select wiring folds with the footprint; comparator
    # energy is unchanged.  Net ~0.45x per full (ungated) broadcast.
    cam_pj_3d = cam_pj_2d * 0.45
    timing = BlockTiming(
        name="wakeup_select_loop",
        latency_2d_ps=latency_2d,
        latency_3d_ps=latency_3d,
        energy_2d_pj=cam_pj_2d,
        energy_3d_pj=cam_pj_3d,
        energy_3d_top_pj=cam_pj_3d * 0.30,
        area_2d_mm2=0.75,
        footprint_3d_mm2=0.19,
        mode=PartitionMode.ENTRY_STACKED,
    )
    return BlockModel("wakeup_select_loop", timing, "scheduler wakeup-select loop")


def _rename_block(tech: Technology, width: int = 4) -> BlockModel:
    """Rename / intra-group dependency check logic (Section 3.7)."""
    fo4 = tech.fo4_delay_ps
    compare_ps = (4.0 + math.log2(width)) * fo4
    wire_2d = wire_delay_ps(700.0, tech)
    wire_3d = wire_delay_ps(700.0 / 2.0, tech) + tech.d2d_via_delay_ps
    comparators = width * (width - 1) // 2 * 2
    energy = comparators * 0.15
    timing = BlockTiming(
        name="rename",
        latency_2d_ps=compare_ps + wire_2d,
        latency_3d_ps=compare_ps + wire_3d,
        energy_2d_pj=energy + wire_energy_pj(700.0, tech) * 8,
        energy_3d_pj=energy + wire_energy_pj(350.0, tech) * 8,
        energy_3d_top_pj=(energy + wire_energy_pj(350.0, tech) * 8) * 0.55,
        area_2d_mm2=0.5,
        footprint_3d_mm2=0.125,
        mode=PartitionMode.ENTRY_STACKED,
    )
    return BlockModel("rename", timing, "rename + dependency check")


# --------------------------------------------------------------------- #
# The full block set
# --------------------------------------------------------------------- #

def _bypass_block(tech: Technology) -> BlockModel:
    """Energy-only view of the bypass network (the wires of Section 3.3).

    A 0.35 switching factor models the fraction of the 64 result wires
    that actually toggle on an average broadcast.
    """
    bus_energy_2d = wire_energy_pj(_BYPASS_SPAN_2D_UM, tech) * 64 * 0.24
    bus_energy_3d = wire_energy_pj(_BYPASS_SPAN_2D_UM / 4.0, tech) * 64 * 0.24
    timing = BlockTiming(
        name="bypass",
        latency_2d_ps=wire_delay_ps(_BYPASS_SPAN_2D_UM, tech),
        latency_3d_ps=wire_delay_ps(_BYPASS_SPAN_2D_UM / 4.0, tech) + tech.d2d_via_delay_ps,
        energy_2d_pj=bus_energy_2d,
        energy_3d_pj=bus_energy_3d,
        energy_3d_top_pj=bus_energy_3d * 0.28,
        area_2d_mm2=0.9,
        footprint_3d_mm2=0.22,
        mode=PartitionMode.WORD_PARTITIONED,
    )
    return BlockModel("bypass", timing, "result bypass wires")


def _fpu_block(tech: Technology) -> BlockModel:
    """Floating point cluster: word-partitioned like the integer units but
    with no width gating (FP values are not on the predicted datapath)."""
    adder = _adder_timings(tech)
    scale = 3.0  # mantissa datapath + rounding + control vs one int adder
    timing = BlockTiming(
        name="fpu",
        latency_2d_ps=adder["latency_2d"] * 1.8,
        latency_3d_ps=adder["latency_3d"] * 1.8,
        energy_2d_pj=adder["energy_2d"] * scale,
        energy_3d_pj=adder["energy_3d"] * scale,
        energy_3d_top_pj=adder["energy_3d"] * scale,
        area_2d_mm2=1.4,
        footprint_3d_mm2=0.35,
        mode=PartitionMode.WORD_PARTITIONED,
    )
    return BlockModel("fpu", timing, "floating point execution cluster")


def build_block_models(tech: Technology = TECH_65NM, dies: int = 4) -> Dict[str, BlockModel]:
    """Build all block models (Table 1 configuration sizes)."""
    blocks: Dict[str, BlockModel] = {}

    def add(model: BlockModel) -> None:
        blocks[model.name] = model

    add(_adder_block(tech))
    add(_alu_bypass_block(tech))
    add(_wakeup_select_block(tech))
    add(_rename_block(tech))
    add(_bypass_block(tech))
    add(_fpu_block(tech))

    add(_array_block(
        "register_file",
        ArrayModel("register_file", entries=96, bits_per_entry=64,
                   read_ports=8, write_ports=4, dies=dies, tech=tech),
        PartitionMode.WORD_PARTITIONED,
        "physical register file (word-partitioned, memoization bits on top die)",
    ))
    add(_array_block(
        "rob",
        ArrayModel("rob", entries=96, bits_per_entry=76,
                   read_ports=4, write_ports=4, dies=dies, tech=tech),
        PartitionMode.WORD_PARTITIONED,
        "reorder buffer holding architectural values",
    ))
    add(_array_block(
        "l1_icache",
        ArrayModel("l1_icache", entries=512, bits_per_entry=512,
                   assoc=8, dies=dies, tech=tech),
        PartitionMode.FOLDED,
        "32KB 8-way instruction cache (prior-work 3D fold)",
    ))
    add(_array_block(
        "l1_dcache",
        ArrayModel("l1_dcache", entries=512, bits_per_entry=512,
                   read_ports=2, write_ports=1, assoc=8, dies=dies, tech=tech),
        PartitionMode.WORD_PARTITIONED,
        "32KB 8-way data cache (word-partitioned data array)",
    ))
    add(_array_block(
        "l2_cache",
        ArrayModel("l2_cache", entries=65536, bits_per_entry=512,
                   assoc=16, dies=dies, tech=tech),
        PartitionMode.FOLDED,
        "4MB 16-way unified L2",
    ))
    add(_array_block(
        "itlb",
        ArrayModel("itlb", entries=128, bits_per_entry=64,
                   assoc=4, dies=dies, tech=tech),
        PartitionMode.ENTRY_STACKED,
        "128-entry ITLB",
    ))
    add(_array_block(
        "dtlb",
        ArrayModel("dtlb", entries=256, bits_per_entry=64,
                   read_ports=2, assoc=4, dies=dies, tech=tech),
        PartitionMode.ENTRY_STACKED,
        "256-entry DTLB",
    ))
    add(_array_block(
        "btb",
        ArrayModel("btb", entries=2048, bits_per_entry=84,
                   assoc=4, dies=dies, tech=tech),
        PartitionMode.WORD_PARTITIONED,
        "2K-entry BTB (low target bits + memoization bit on top die)",
    ))
    add(_array_block(
        "ibtb",
        ArrayModel("ibtb", entries=512, bits_per_entry=84,
                   assoc=4, dies=dies, tech=tech),
        PartitionMode.WORD_PARTITIONED,
        "512-entry indirect BTB",
    ))
    add(_array_block(
        "dir_predictor",
        ArrayModel("dir_predictor", entries=5120, bits_per_entry=16,
                   dies=dies, tech=tech),
        PartitionMode.FOLDED,
        "10KB hybrid direction predictor (direction/hysteresis split)",
    ))
    add(_array_block(
        "load_queue",
        ArrayModel("load_queue", entries=32, bits_per_entry=128,
                   read_ports=2, write_ports=2, dies=dies, tech=tech),
        PartitionMode.WORD_PARTITIONED,
        "32-entry load queue (word-partitioned, PAM broadcasts)",
    ))
    add(_array_block(
        "store_queue",
        ArrayModel("store_queue", entries=20, bits_per_entry=128,
                   read_ports=2, write_ports=2, dies=dies, tech=tech),
        PartitionMode.WORD_PARTITIONED,
        "20-entry store queue (word-partitioned, PAM broadcasts)",
    ))
    add(_array_block(
        "fetch_queue",
        ArrayModel("fetch_queue", entries=16, bits_per_entry=128,
                   read_ports=4, write_ports=4, dies=dies, tech=tech),
        PartitionMode.ENTRY_STACKED,
        "16-entry instruction fetch queue",
    ))
    return blocks


def table2(blocks: Dict[str, BlockModel] = None) -> str:
    """Render the Table 2 equivalent: 2D vs 3D latency per block."""
    blocks = blocks or build_block_models()
    header = f"{'Block':<22s} {'2D (ps)':>9s} {'3D (ps)':>9s} {'improvement':>12s}"
    lines = [header, "-" * len(header)]
    for name, model in sorted(blocks.items()):
        t = model.timing
        marker = " *" if name in ("wakeup_select_loop", "alu_bypass_loop") else ""
        lines.append(
            f"{name:<22s} {t.latency_2d_ps:9.1f} {t.latency_3d_ps:9.1f} "
            f"{t.improvement:11.1%}{marker}"
        )
    lines.append("* frequency-determining critical loop")
    return "\n".join(lines)
