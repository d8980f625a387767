"""3D steady-state thermal model (the HotSpot 3.0.2 substitute).

The chip is discretized into a grid per layer; layers run from the heat
spreader (top, convectively coupled to ambient through the heat sink)
down through the TIM and the die stack.  Fourier conduction is solved as
a sparse linear system (finite volumes), exactly the physics of HotSpot's
grid model.  For 3D stacks the die-to-die interface layers use the
paper's assumption of fully-populated d2d vias at 25 % copper occupancy,
and the TIM is a phase-change metallic alloy.
"""

from repro.thermal.materials import Material, SILICON, COPPER, TIM_ALLOY, D2D_BOND
from repro.thermal.stack import LayerSpec, ThermalStack, planar_stack, stacked_3d_stack
from repro.thermal.power_map import build_power_map, rasterize

__all__ = [
    "Material",
    "SILICON",
    "COPPER",
    "TIM_ALLOY",
    "D2D_BOND",
    "LayerSpec",
    "ThermalStack",
    "planar_stack",
    "stacked_3d_stack",
    "build_power_map",
    "rasterize",
]
