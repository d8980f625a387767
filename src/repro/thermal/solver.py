"""Finite-volume 3D heat conduction: the conductance system every
thermal solve and transient step shares.

The grid covers the *heat spreader* footprint (larger than the chip, as
in HotSpot); the TIM and die layers exist only over the centred chip
region — cells outside it are filled with a near-insulating material so
lateral spreading happens in the copper spreader, not in thin silicon.

Every layer is discretized into the same (ny, nx) grid.  Lateral
conduction uses harmonic-mean conductances between neighbouring cells;
vertical conduction couples vertically adjacent cells of neighbouring
layers through the series resistance of the two half-layers.  The top of
the spreader is coupled to ambient through the sink's convection
resistance; all other outer faces are adiabatic.

Each solver owns its system: it assembles the conductance matrix once
and LU-factorizes it once, and every later solve back-substitutes
against those factors.  The factorization is deferred to the first
steady solve, so a transient solver
(:class:`~repro.thermal.transient.TransientThermalSolver`), which
factorizes its own step matrix, never pays for a steady one.  Assembly
itself is vectorized — whole-layer conductance arrays emitted as
concatenated COO triplets.  The solver also owns the one chip-window
scatter (``_chip_cells``) that places per-die chip power grids into a
right-hand side, for steady solves and transient steps alike.

``scipy.sparse`` is imported by the first assembly and the first
factorization, not by this module, so processes that only read cached
thermal results never load it.  A parent about to fork a pool for
thermal or transient work imports it first (see
:class:`repro.experiments.context.ThermalRun`), so the workers inherit
it instead of each importing their own.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.floorplan.geometry import Floorplan
from repro.thermal.stack import ThermalStack

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix

#: Bump when the discretization or boundary conditions change; part of
#: every persistent thermal-result cache key.
THERMAL_MODEL_VERSION = 1

#: Conductivity of the filler outside the chip region (underfill/air mix).
_FILLER_K = 0.05
#: Default spreader side (mm); HotSpot's default spreader is 30 mm.
DEFAULT_SPREADER_MM = 24.0


@dataclass
class FactorizationStats:
    """Process-wide factorization count (observable in tests)."""

    factorizations: int = 0


#: Steady conductance-matrix factorizations in this process.
FACTORIZATION_STATS = FactorizationStats()


def _factorize(matrix: csc_matrix) -> Callable:
    """LU-factorize ``matrix``, preferring SuperLU's symmetric-pattern
    ordering (the conductance matrix is symmetric positive definite, and
    MMD_AT_PLUS_A fills in ~4x less than the default COLAMD here)."""
    from scipy.sparse.linalg import factorized, splu

    try:
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
        return lu.solve
    except (RuntimeError, ValueError, TypeError):
        return factorized(matrix)


@dataclass
class ThermalResult:
    """Solved temperature field plus block-level summaries."""

    stack_name: str
    nx: int
    ny: int
    #: per-layer (ny, nx) temperature grids over the spreader footprint, K
    layer_temps: List[np.ndarray]
    #: layer index of each power die
    die_layers: Dict[int, int]
    #: per-(block, die) peak temperature, K
    block_peak: Dict[Tuple[str, int], float]
    #: per-(block, die) mean temperature, K
    block_mean: Dict[Tuple[str, int], float]

    @property
    def peak_temperature(self) -> float:
        """Hottest cell across the die layers."""
        return max(float(self.layer_temps[l].max()) for l in self.die_layers.values())

    def hottest_block(self) -> Tuple[str, int, float]:
        """(name, die, K) of the hottest block."""
        (name, die), temp = max(self.block_peak.items(), key=lambda kv: kv[1])
        return name, die, temp

    def die_peak(self, die: int) -> float:
        return float(self.layer_temps[self.die_layers[die]].max())


class ThermalSolver:
    """Solves one stack/floorplan combination at grid resolution nx x ny."""

    def __init__(
        self,
        stack: ThermalStack,
        floorplan: Floorplan,
        nx: int = 48,
        ny: int = 48,
        spreader_mm: float = DEFAULT_SPREADER_MM,
    ):
        if floorplan.dies != stack.die_count:
            raise ValueError(
                f"floorplan has {floorplan.dies} dies but stack has {stack.die_count}"
            )
        self.stack = stack
        self.floorplan = floorplan
        self.nx = nx
        self.ny = ny
        #: the constructor argument, kept so an identical solver can be
        #: rebuilt in a pool worker
        self.spreader_mm = spreader_mm
        self.spreader_w_mm = max(spreader_mm, floorplan.width_mm)
        self.spreader_h_mm = max(spreader_mm, floorplan.height_mm)
        #: chip offset within the spreader footprint (centred), mm
        self.chip_x0_mm = (self.spreader_w_mm - floorplan.width_mm) / 2.0
        self.chip_y0_mm = (self.spreader_h_mm - floorplan.height_mm) / 2.0
        #: the assembled conductance matrix G, once :meth:`_bind` has run
        self.conductance_matrix: Optional[csc_matrix] = None
        self._conv_per_cell: Optional[float] = None
        self._solve_fn: Optional[Callable] = None
        #: (floorplan fingerprint, :meth:`result_digest`) once computed
        self._result_digest: Optional[Tuple[Tuple, str]] = None
        # Chip cell window within the spreader grid (shared by the
        # material mask and the chip-cell scatter).
        dx = self.spreader_w_mm / nx
        dy = self.spreader_h_mm / ny
        self._chip_x0 = int(round(self.chip_x0_mm / dx))
        self._chip_y0 = int(round(self.chip_y0_mm / dy))
        self._chip_nx = max(2, int(round(floorplan.width_mm / dx)))
        self._chip_ny = max(2, int(round(floorplan.height_mm / dy)))
        self._chip_nx = min(self._chip_nx, nx - self._chip_x0)
        self._chip_ny = min(self._chip_ny, ny - self._chip_y0)
        #: layer index of each power die (geometry is immutable per solver)
        self._die_layer_map: Dict[int, int] = {
            layer.power_die: l
            for l, layer in enumerate(stack.layers)
            if layer.power_die is not None
        }
        #: flat index of every chip-window cell of every die layer, die
        #: by die in ``_die_layer_map`` order: where :meth:`_stack_power`
        #: output lands in a right-hand side
        yy, xx = np.mgrid[0:self._chip_ny, 0:self._chip_nx]
        window = ((yy + self._chip_y0) * nx + (xx + self._chip_x0)).ravel()
        self._chip_cells = np.concatenate(
            [l * ny * nx + window for l in self._die_layer_map.values()]
        )

    # ------------------------------------------------------------------ #

    def matrix_key(self) -> Tuple:
        """Hashable fingerprint of everything the conductance matrix
        depends on; dispatchers group right-hand sides by it, so that
        each geometry is factorized once."""
        return (
            tuple(
                (layer.thickness_m, layer.material.conductivity_w_mk)
                for layer in self.stack.layers
            ),
            self.stack.convection_k_per_w,
            self.nx,
            self.ny,
            self.spreader_w_mm,
            self.spreader_h_mm,
            self._chip_x0,
            self._chip_y0,
            self._chip_nx,
            self._chip_ny,
        )

    def geometry_id(self) -> str:
        """Short stable digest of :meth:`matrix_key`, for logs and events
        (the full key is an unwieldy nested tuple)."""
        digest = hashlib.sha256(repr(self.matrix_key()).encode("utf-8"))
        return digest.hexdigest()[:12]

    def result_key(self) -> Tuple:
        """:meth:`matrix_key` plus everything else a solved
        :class:`ThermalResult` depends on (used by persistent caches)."""
        return (
            THERMAL_MODEL_VERSION,
            self.matrix_key(),
            self.stack.ambient_k,
            self.stack.name,
            tuple(sorted(self._die_layer_map.items())),
            self.floorplan.fingerprint(),
        )

    def result_digest(self) -> str:
        """SHA-256 of :meth:`result_key` as compact JSON, the geometry
        part of every thermal cache key (see :mod:`repro.experiments.cache`).
        Computed once, and again only after the floorplan's fingerprint
        changes.  The JSON of a tuple is its parts' JSON joined by commas
        in brackets, so the floorplan's part comes from its memoized
        :meth:`~repro.floorplan.geometry.Floorplan.fingerprint_json`,
        which every solver on that floorplan shares."""
        fingerprint = self.floorplan.fingerprint()
        memo = self._result_digest
        if memo is None or memo[0] is not fingerprint:
            *head, _ = self.result_key()
            parts = [json.dumps(part, sort_keys=True, separators=(",", ":"))
                     for part in head]
            parts.append(self.floorplan.fingerprint_json())
            text = "[" + ",".join(parts) + "]"
            memo = (fingerprint, hashlib.sha256(text.encode("utf-8")).hexdigest())
            self._result_digest = memo
        return memo[1]

    # ------------------------------------------------------------------ #

    def _cell_k(self, layer_index: int) -> np.ndarray:
        """Per-cell conductivity map for one layer."""
        layer = self.stack.layers[layer_index]
        k = np.full((self.ny, self.nx), layer.material.conductivity_w_mk)
        if layer_index == 0:
            return k  # the spreader spans the full footprint
        outside = np.ones((self.ny, self.nx), dtype=bool)
        outside[self._chip_y0:self._chip_y0 + self._chip_ny,
                self._chip_x0:self._chip_x0 + self._chip_nx] = False
        k[outside] = _FILLER_K
        return k

    def _bind(self) -> None:
        """Assemble this solver's conductance matrix, once, without
        factorizing it."""
        if self.conductance_matrix is None:
            self.conductance_matrix, self._conv_per_cell = self._assemble()

    def _build(self) -> None:
        """Assemble and LU-factorize this solver's system, once."""
        if self._solve_fn is None:
            self._bind()
            self._solve_fn = _factorize(self.conductance_matrix)
            FACTORIZATION_STATS.factorizations += 1

    def _assemble(self) -> Tuple[csc_matrix, float]:
        """Vectorized conductance-matrix assembly.

        Harmonic-mean lateral conductances and vertical series
        resistances are computed as whole-layer (ny, nx) arrays and
        emitted as concatenated COO index/value arrays.  The diagonal is
        accumulated in a fixed per-cell order (below), so the matrix
        bytes are reproducible; ``tests/thermal/test_vectorized_assembly.py``
        pins them with digests.
        """
        from scipy.sparse import coo_matrix

        nx, ny = self.nx, self.ny
        layers = self.stack.layers
        nl = len(layers)
        n = nl * ny * nx
        dx = self.spreader_w_mm * 1e-3 / nx
        dy = self.spreader_h_mm * 1e-3 / ny
        cell_area = dx * dy
        spreader_area = self.spreader_w_mm * self.spreader_h_mm * 1e-6

        k = np.stack([self._cell_k(l) for l in range(nl)])  # (nl, ny, nx)
        idx = np.arange(n).reshape(nl, ny, nx)
        thickness = np.array([layer.thickness_m for layer in layers])

        # Harmonic-mean lateral conductances between x/y neighbours.
        kl, kr = k[:, :, :-1], k[:, :, 1:]
        g_x = 2.0 * kl * kr / (kl + kr) * (thickness[:, None, None] * dy) / dx
        ku, kd = k[:, :-1, :], k[:, 1:, :]
        g_y = 2.0 * ku * kd / (ku + kd) * (thickness[:, None, None] * dx) / dy

        # Series resistance of the two half-layers between vertical
        # neighbours, over the cell footprint.
        half = thickness[:, None, None] / (2.0 * k)
        g_v = 1.0 / ((half[:-1] + half[1:]) / cell_area)  # (nl-1, ny, nx)

        conv_total = 1.0 / self.stack.convection_k_per_w
        conv_per_cell = conv_total * (cell_area / spreader_area)

        # Diagonal accumulation order per cell: vertical-from-above,
        # y-up, x-left, x-right, y-down, vertical-to-below, then the
        # layer-0 convection term.  Float addition is not associative,
        # so changing this order changes the matrix bytes.
        diag = np.zeros((nl, ny, nx))
        for l in range(nl):
            diag[l, 1:, :] += g_y[l]
            diag[l, :, 1:] += g_x[l]
            diag[l, :, :-1] += g_x[l]
            diag[l, :-1, :] += g_y[l]
            if l + 1 < nl:
                diag[l] += g_v[l]
                diag[l + 1] += g_v[l]
        diag[0] += conv_per_cell

        a_x, b_x = idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()
        a_y, b_y = idx[:, :-1, :].ravel(), idx[:, 1:, :].ravel()
        a_v, b_v = idx[:-1].ravel(), idx[1:].ravel()
        rows = np.concatenate([a_x, b_x, a_y, b_y, a_v, b_v, idx.ravel()])
        cols = np.concatenate([b_x, a_x, b_y, a_y, b_v, a_v, idx.ravel()])
        vx, vy, vv = -g_x.ravel(), -g_y.ravel(), -g_v.ravel()
        vals = np.concatenate([vx, vx, vy, vy, vv, vv, diag.ravel()])
        matrix = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        return matrix, conv_per_cell

    # ------------------------------------------------------------------ #

    def chip_grid_shape(self) -> Tuple[int, int]:
        """(ny, nx) resolution for chip-region power maps."""
        return self._chip_ny, self._chip_nx

    def _die_layers(self) -> Dict[int, int]:
        return dict(self._die_layer_map)

    def _stack_power(self, die_power_grids: Sequence[np.ndarray]) -> np.ndarray:
        """Per-die chip power grids (each at :meth:`chip_grid_shape`),
        raveled in ``_chip_cells`` order."""
        if len(die_power_grids) != self.stack.die_count:
            raise ValueError(
                f"expected {self.stack.die_count} power grids, got {len(die_power_grids)}"
            )
        parts = []
        for die in self._die_layer_map:
            grid = np.asarray(die_power_grids[die])
            if grid.shape != (self._chip_ny, self._chip_nx):
                raise ValueError(
                    f"power grid shape {grid.shape} != chip grid "
                    f"({self._chip_ny}, {self._chip_nx})"
                )
            parts.append(grid.ravel())
        return np.concatenate(parts)

    def _rhs_for(self, die_power_grids: Sequence[np.ndarray]) -> np.ndarray:
        nx, ny = self.nx, self.ny
        rhs = np.zeros(len(self.stack.layers) * ny * nx)
        rhs[self._chip_cells] = self._stack_power(die_power_grids)
        rhs[: ny * nx] += self._conv_per_cell * self.stack.ambient_k
        return rhs

    def _result_from(self, temps: np.ndarray) -> ThermalResult:
        nx, ny = self.nx, self.ny
        layer_temps = [
            temps[l * ny * nx:(l + 1) * ny * nx].reshape(ny, nx)
            for l in range(len(self.stack.layers))
        ]
        die_layers = self._die_layers()
        block_peak, block_mean = self._block_temps(layer_temps, die_layers)
        return ThermalResult(
            stack_name=self.stack.name,
            nx=nx,
            ny=ny,
            layer_temps=layer_temps,
            die_layers=die_layers,
            block_peak=block_peak,
            block_mean=block_mean,
        )

    def solve(self, die_power_grids: Sequence[np.ndarray]) -> ThermalResult:
        """Solve for per-die chip-region power grids (W per cell)."""
        return self.solve_many([die_power_grids])[0]

    def solve_many(
        self, batches: Sequence[Sequence[np.ndarray]]
    ) -> List[ThermalResult]:
        """Solve several power maps against the one LU factorization.

        All right-hand sides are backsubstituted in a single call, so the
        factorization cost — and most of the per-solve overhead — is paid
        once for the whole batch.
        """
        if not batches:
            return []
        self._build()
        rhs = np.stack([self._rhs_for(batch) for batch in batches], axis=1)
        temps = self._solve_fn(rhs)
        return [self._result_from(np.asarray(temps[:, i]).ravel())
                for i in range(len(batches))]

    def _block_temps(self, layer_temps, die_layers):
        nx, ny = self.nx, self.ny
        dx = self.spreader_w_mm / nx
        dy = self.spreader_h_mm / ny
        block_peak: Dict[Tuple[str, int], float] = {}
        block_mean: Dict[Tuple[str, int], float] = {}
        for block in self.floorplan.blocks:
            grid = layer_temps[die_layers[block.die]]
            r = block.rect
            bx = r.x + self.chip_x0_mm
            by = r.y + self.chip_y0_mm
            x0 = max(0, int(bx / dx))
            x1 = max(x0 + 1, min(nx, int(np.ceil((bx + r.w) / dx))))
            y0 = max(0, int(by / dy))
            y1 = max(y0 + 1, min(ny, int(np.ceil((by + r.h) / dy))))
            region = grid[y0:y1, x0:x1]
            key = (block.name, block.die)
            block_peak[key] = float(region.max())
            block_mean[key] = float(region.mean())
        return block_peak, block_mean
