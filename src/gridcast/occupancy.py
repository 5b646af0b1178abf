"""Spatial-temporal occupancy grids.

Ground truth is rasterized in binary form (occupied future cells set to 1 per
timestamp); the probabilistic target-agent prediction interpolates the
planner's per-step visitation distributions onto the forecast timestamps.
Scored with a focal binary cross-entropy.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import GridSpec, world_to_cell
from .irl import Policy, expected_visitation

PROB_CLAMP = 1e-6


def rasterize_gt_ogm(scene, spec: GridSpec) -> np.ndarray:
    """Binary (rows, cols, T_f) occupancy from every agent future in the scene.

    Uses per-agent futures when the scene carries them, otherwise just the
    target's ground-truth future. Off-grid positions are skipped; absent
    futures produce an all-zero map.
    """
    t_f = scene.gt_future.shape[0]
    out = np.zeros((spec.rows, spec.cols, t_f), dtype=np.uint8)
    if scene.agent_futures is not None:
        futures = [scene.agent_futures[i] for i in range(scene.agent_futures.shape[0])]
    else:
        futures = [scene.gt_future]
    for future in futures:
        for t in range(min(t_f, future.shape[0])):
            cell = world_to_cell(future[t], spec)
            if cell is not None:
                out[cell.row, cell.col, t] = 1
    return out


def predict_occupancy(policy: Policy, n_steps: int) -> np.ndarray:
    """Probabilistic (rows, cols, T_f) occupancy of the target on the policy's grid.

    Forecast step j maps to planning time j * horizon / n_steps; visitation
    slices are linearly interpolated between the bracketing planning steps, so
    each timestamp keeps unit total mass.
    """
    spec, horizon = policy.spec, policy.horizon
    visit = expected_visitation(policy)
    out = np.zeros((spec.rows, spec.cols, n_steps))
    for j in range(1, n_steps + 1):
        tau = j * horizon / n_steps
        lo = int(np.floor(tau))
        hi = min(lo + 1, horizon)
        w = tau - lo
        out[:, :, j - 1] = (1.0 - w) * visit[lo] + w * visit[hi]
    return out


def uniform_occupancy(spec: GridSpec, n_steps: int) -> np.ndarray:
    """Baseline: each timestamp spreads unit mass uniformly over all cells."""
    p = 1.0 / (spec.rows * spec.cols)
    return np.full((spec.rows, spec.cols, n_steps), p)


def focal_bce(pred: np.ndarray, gt: np.ndarray, gamma: float = 2.0,
              alpha: float = 0.25) -> float:
    """Mean focal binary cross-entropy with probabilities clamped to [1e-6, 1-1e-6]."""
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    p = np.clip(np.asarray(pred, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(gt, dtype=np.float64)
    loss = (-alpha * (1.0 - p) ** gamma * y * np.log(p)
            - (1.0 - alpha) * p ** gamma * (1.0 - y) * np.log(1.0 - p))
    return float(loss.mean())


# ---------------------------------------------------------------------------
# Packed binary export: header <rows, cols, T_f> as little-endian uint32,
# then row-major uint8 (GT) or little-endian float32 (prediction).
# ---------------------------------------------------------------------------

def write_ogm_binary(path, ogm: np.ndarray) -> None:
    rows, cols, t_f = ogm.shape
    header = struct.pack("<3I", rows, cols, t_f)
    if ogm.dtype == np.uint8:
        payload = np.ascontiguousarray(ogm).tobytes()
    else:
        payload = np.ascontiguousarray(ogm, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_ogm_binary(path) -> np.ndarray:
    """The grid write_ogm_binary wrote. Raises ValueError naming the file for a
    truncated header or payload, an empty grid, or values that are no
    occupancy: a uint8 value other than 0 or 1, a float one outside [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12:
        raise ValueError(f"{path}: {len(blob)} bytes hold no 12-byte header")
    rows, cols, t_f = struct.unpack_from("<3I", blob, 0)
    body = blob[12:]
    n = rows * cols * t_f
    if n == 0 or len(body) not in (n, 4 * n):
        raise ValueError(f"{path}: payload size {len(body)} matches neither uint8 nor "
                         f"float32 for a nonempty {rows}x{cols}x{t_f} grid")
    if len(body) == n:
        ogm = np.frombuffer(body, dtype=np.uint8).reshape(rows, cols, t_f).copy()
        if ogm.max() > 1:
            raise ValueError(f"{path}: a binary grid holds {ogm.max()}, not only 0 and 1")
        return ogm
    ogm = np.frombuffer(body, dtype="<f4").reshape(rows, cols, t_f).astype(np.float64)
    if not np.all(np.isfinite(ogm)):
        raise ValueError(f"{path}: the grid holds non-finite values")
    if not np.all((ogm >= 0.0) & (ogm <= 1.0)):
        raise ValueError(f"{path}: the grid holds values outside [0, 1], "
                         f"from {ogm.min()} to {ogm.max()}")
    return ogm
