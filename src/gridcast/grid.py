"""Discrete bird's-eye-view grid world.

States are (row, col) cells, actions are the 8-connected moves plus STAY, and
transitions are deterministic. The row axis points along +x (ahead of the
target agent), the column axis along +y (left).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 9 actions ordered row-major by (drow, dcol); index = (drow+1)*3 + (dcol+1).
ACTIONS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 0), (0, 1),
    (1, -1), (1, 0), (1, 1),
)
N_ACTIONS = len(ACTIONS)
STAY = 4

ACTION_OFFSETS = np.array(ACTIONS, dtype=np.int64)


@dataclass(frozen=True)
class CellIndex:
    row: int
    col: int


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: dimensions, cell size, and the target-anchored origin.

    ``anchor`` is the cell the target agent's current position maps to. Its
    centre is the origin of the target frame: cell (r, c) has its centre at
    ((r - anchor.row) * resolution, (c - anchor.col) * resolution) meters.
    """

    rows: int
    cols: int
    resolution: float
    anchor: CellIndex

    def __post_init__(self):
        if self.rows < 3 or self.cols < 3:
            raise ValueError(f"grid must be at least 3x3, got {self.rows}x{self.cols}")
        if not (math.isfinite(self.resolution) and self.resolution > 0.0):
            raise ValueError(f"resolution must be a finite positive number, got {self.resolution}")
        if not self.contains(self.anchor.row, self.anchor.col):
            raise ValueError(f"anchor {self.anchor} outside {self.rows}x{self.cols} grid")

    def contains(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols


def round_half_away(value: float) -> int:
    """Round to nearest integer, halves away from zero (platform-stable)."""
    if value >= 0.0:
        return int(math.floor(value + 0.5))
    return int(math.ceil(value - 0.5))


def world_to_cell(point, spec: GridSpec) -> CellIndex | None:
    """Map a continuous (x, y) point to its nearest cell; None when off-grid."""
    x, y = float(point[0]), float(point[1])
    row = spec.anchor.row + round_half_away(x / spec.resolution)
    col = spec.anchor.col + round_half_away(y / spec.resolution)
    if not spec.contains(row, col):
        return None
    return CellIndex(row, col)


def cell_to_world(cells, spec: GridSpec) -> np.ndarray:
    """Cell-centre coordinates in meters of an integer (..., 2) array of
    (row, col) cells, as a (..., 2) float array; inverse of world_to_cell on
    the lattice. Raises ValueError for a cell off the grid."""
    cells = np.asarray(cells)
    if cells.shape[-1:] != (2,) or not np.issubdtype(cells.dtype, np.integer):
        raise ValueError(f"expected an integer (..., 2) cell array, got {cells.dtype} {cells.shape}")
    if np.any(cells < 0) or np.any(cells >= (spec.rows, spec.cols)):
        raise ValueError(f"cells outside {spec.rows}x{spec.cols} grid")
    return (cells - (spec.anchor.row, spec.anchor.col)) * spec.resolution


def step(cell: CellIndex, action: int, spec: GridSpec) -> CellIndex | None:
    """Deterministic transition; None when the move would leave the grid."""
    dr, dc = ACTIONS[action]
    row, col = cell.row + dr, cell.col + dc
    if not spec.contains(row, col):
        return None
    return CellIndex(row, col)


def padded_map(spec: GridSpec, border) -> np.ndarray:
    """A (rows+2, cols+2) map for neighbourhood, every cell set to ``border``.

    The grid itself is the map's interior; the one-cell border stands for
    every off-grid successor, so its value decides what an off-grid move reads
    (0 for the planner's weights).
    """
    return np.full((spec.rows + 2, spec.cols + 2), border)


def _strided_view(base: np.ndarray, shape, offset: int, strides) -> np.ndarray:
    """A read-only view of the contiguous array ``base``. The ndarray
    constructor raises ValueError if ``base`` is not contiguous or if any
    element of the view would lie outside its buffer."""
    view = np.ndarray(shape, base.dtype, base, offset, strides)
    view.flags.writeable = False
    return view


def neighbourhood(padded: np.ndarray, spec: GridSpec,
                  window: tuple[slice, slice] | None = None) -> np.ndarray:
    """The read-only (3, 3, h, w) neighbourhood of a padded map over the grid
    or a ``window`` of it.

    Entry (dr+1, dc+1, r, c) is the padded map at the successor of window cell
    (r, c) under the move (dr, dc); a move off the grid reads the border. Its
    first two axes flatten to the nine actions in ACTIONS order. ``window`` is
    a (row_slice, col_slice) pair with explicit bounds, as ``window`` returns.
    The view shares memory with ``padded``, so it sees later writes into it.
    """
    if padded.shape != (spec.rows + 2, spec.cols + 2):
        raise ValueError(f"padded map shape {padded.shape} != {(spec.rows + 2, spec.cols + 2)}")
    rows, cols = window or (slice(0, spec.rows), slice(0, spec.cols))
    s_row, s_col = padded.strides
    return _strided_view(padded, (3, 3, rows.stop - rows.start, cols.stop - cols.start),
                         rows.start * s_row + cols.start * s_col,
                         (s_row, s_col, s_row, s_col))


def window(spec: GridSpec, radius: int) -> tuple[slice, slice]:
    """The (row_slice, col_slice) of the grid clipped to the box ``anchor ± radius``:
    every cell the target can reach in ``radius`` moves, and no other."""
    anchor = spec.anchor
    return (slice(max(anchor.row - radius, 0), min(anchor.row + radius + 1, spec.rows)),
            slice(max(anchor.col - radius, 0), min(anchor.col + radius + 1, spec.cols)))


def reachable_box(spec: GridSpec, horizon: int) -> tuple[GridSpec, tuple[slice, slice]]:
    """The grid clipped to the box ``anchor ± horizon``, and its window.

    Returns (box, (row_slice, col_slice)): ``box`` has the anchor re-indexed
    into it, so a box cell's centre is that of the grid cell it cuts out, and
    ``full_map[row_slice, col_slice]`` cuts the box out of a full-grid map.
    Every cell the target can reach in ``horizon`` moves lies in the box. The radius is at least 2 so the box
    meets the 3x3 minimum of a grid; a larger box holds the same cells.
    """
    rows, cols = window(spec, max(horizon, 2))
    box = GridSpec(rows=rows.stop - rows.start, cols=cols.stop - cols.start,
                   resolution=spec.resolution,
                   anchor=CellIndex(spec.anchor.row - rows.start, spec.anchor.col - cols.start))
    return box, (rows, cols)


def eight_connected_line(a: CellIndex, b: CellIndex) -> list[CellIndex]:
    """Intermediate cells strictly between a and b on the 8-connected walk."""
    out = []
    r, c = a.row, a.col
    while (r, c) != (b.row, b.col):
        r += (b.row > r) - (b.row < r)
        c += (b.col > c) - (b.col < c)
        if (r, c) != (b.row, b.col):
            out.append(CellIndex(r, c))
    return out


def quantize_trajectory(points, spec: GridSpec):
    """Quantize a T x 2 trajectory onto the grid.

    Returns (per_step, path): ``per_step`` has one entry per timestamp
    (CellIndex or None when off-grid, repeats kept); ``path`` drops off-grid
    entries and consecutive duplicates, then inserts 8-connected intermediate
    cells so the result is a valid state sequence for the MDP.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != 2:
        raise ValueError(f"expected a T x 2 trajectory with T >= 1, got shape {pts.shape}")
    per_step = [world_to_cell(p, spec) for p in pts]
    path: list[CellIndex] = []
    for cell in per_step:
        if cell is None:
            continue
        if path and cell == path[-1]:
            continue
        if path:
            path.extend(eight_connected_line(path[-1], cell))
        path.append(cell)
    return per_step, path


def cells_adjacent(a: CellIndex, b: CellIndex) -> bool:
    return abs(a.row - b.row) <= 1 and abs(a.col - b.col) <= 1
