"""Portable pixmap rendering and exact CSV export of grid fields."""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, connect_cells, world_to_cell

# distinct gray levels / colors for mode overlays
GT_COLOR = (255, 0, 255)
MODE_COLORS = ((0, 200, 0), (0, 120, 255), (255, 160, 0),
               (0, 220, 220), (200, 0, 0), (160, 90, 230))


def write_netpbm(path, image: np.ndarray) -> None:
    """Binary netpbm, written row-major: P5 PGM for a (rows, cols) gray image,
    P6 PPM for a (rows, cols, 3) color one, both uint8."""
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim == 2:
        magic = "P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = "P6"
    else:
        raise ValueError(f"a netpbm image is (rows, cols) or (rows, cols, 3), got {img.shape}")
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _min_max_scaled(field: np.ndarray, top: float) -> np.ndarray:
    """round((f - min) / (max - min) * top) as uint8, so the field spans 0..top;
    a flat field, whose max equals its min, is all 0."""
    f = np.asarray(field, dtype=np.float64)
    lo, hi = float(f.min()), float(f.max())
    if not hi > lo:
        return np.zeros(f.shape, dtype=np.uint8)
    return np.round((f - lo) / (hi - lo) * top).astype(np.uint8)


def field_to_pgm(path, field: np.ndarray) -> None:
    """Min-max scale a real-valued field into 8-bit grayscale."""
    write_netpbm(path, _min_max_scaled(field, 255.0))


def field_to_csv(path, field: np.ndarray) -> None:
    """Exact (row, col, value) dump for inspection and diffing."""
    f = np.asarray(field)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,value\n")
        for r in range(f.shape[0]):
            for c in range(f.shape[1]):
                fh.write(f"{r},{c},{float(f[r, c])!r}\n")


def read_field_csv(path) -> np.ndarray:
    """The field of a field_to_csv dump; raises ValueError naming the file for
    no cells, a malformed line, a non-finite value or a cell not given once."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()[1:]
    try:
        cells = [(int(r), int(c), float(v)) for r, c, v in (line.split(",") for line in lines)]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed field line: {exc}") from exc
    if not cells:
        raise ValueError(f"{path}: the field has no cells")
    rows, cols, values = (np.array(column) for column in zip(*cells))
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: the field holds non-finite values")
    if min(rows.min(), cols.min()) < 0:
        raise ValueError(f"{path}: the field has a negative cell index")
    out = np.full((rows.max() + 1, cols.max() + 1), np.nan)
    out[rows, cols] = values
    if len(cells) != out.size or np.isnan(out).any():
        raise ValueError(f"{path}: {len(cells)} lines do not give each cell of the "
                         f"{out.shape[0]}x{out.shape[1]} field once")
    return out


def occupancy_frames(out_dir, ogm: np.ndarray, prefix: str = "ogm") -> list:
    """One PGM per timestamp; probabilities scaled by 255."""
    from pathlib import Path

    out_dir = Path(out_dir)
    paths = []
    for t in range(ogm.shape[2]):
        frame = np.clip(np.asarray(ogm[:, :, t], dtype=np.float64) * 255.0, 0, 255)
        p = out_dir / f"{prefix}_{t:03d}.pgm"
        write_netpbm(p, frame.astype(np.uint8))
        paths.append(p)
    return paths


def _draw_polyline(image: np.ndarray, points, spec: GridSpec, color) -> None:
    """Colour the on-grid cells of a polyline of world points, joined by the
    package's path repair (grid.connect_cells)."""
    cells = (world_to_cell(p, spec) for p in points)
    for cell in connect_cells(c for c in cells if c is not None):
        image[cell.row, cell.col] = color


def trajectory_overlay(spec: GridSpec, gt_future, mode_trajectories,
                       background: np.ndarray | None = None) -> np.ndarray:
    """RGB overlay: background field in gray, modes in distinct colors, GT last."""
    img = np.zeros((spec.rows, spec.cols, 3), dtype=np.uint8)
    if background is not None:
        img[:] = _min_max_scaled(background, 180.0)[..., None]
    for k, traj in enumerate(mode_trajectories):
        _draw_polyline(img, traj, spec, MODE_COLORS[k % len(MODE_COLORS)])
    _draw_polyline(img, gt_future, spec, GT_COLOR)
    return img
