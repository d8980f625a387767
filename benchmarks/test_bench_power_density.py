"""Section 5.3: the iso-power, iso-frequency 4x power density experiment.

Paper target: stacking the planar 90 W / 2.66 GHz design into the 3D
footprint raises the worst-case temperature by 58 K (to 418 K) — far
more than the real 3D processor, because the real one's power drops.
"""

from benchmarks.conftest import emit
from repro.experiments.figure10 import run_figure10
from repro.experiments.power_density import run_power_density


def test_bench_power_density(benchmark, context):
    result = benchmark.pedantic(run_power_density, args=(context,), rounds=1, iterations=1)
    emit("Section 5.3 — iso-power density experiment", result.format())

    assert abs(result.iso_watts - result.planar_watts) < 1e-6
    assert 20.0 <= result.delta_k <= 80.0

    # The iso-power stack must be far hotter than the real 3D processor.
    figure10 = run_figure10(context)
    assert result.delta_k > figure10.delta_herding + 10.0
