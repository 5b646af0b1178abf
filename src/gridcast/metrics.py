"""Forecasting metrics and reports.

Displacement metrics follow the usual benchmark definitions: the miss-rate
boundary is strict (an endpoint error of exactly 2.0 m is not a miss), ties
between modes resolve to the lowest index, and aggregation over scenes is an
unweighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MISS_THRESHOLD = 2.0


def _checked(trajectories: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K x T x 2 modes and the T x 2 ground truth they are scored against."""
    trajectories = np.asarray(trajectories, dtype=np.float64)
    if trajectories.ndim != 3 or trajectories.shape[0] < 1 or trajectories.shape[2] != 2:
        raise ValueError(f"expected K x T x 2 with K >= 1, got shape {trajectories.shape}")
    gt = np.asarray(gt, dtype=np.float64)
    if gt.shape != trajectories.shape[1:]:
        raise ValueError(f"ground truth of shape {gt.shape} does not match the forecast's "
                         f"{trajectories.shape[1]} points, shape {trajectories.shape[1:]}")
    return trajectories, gt


def _endpoint_errors(trajectories: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Each mode's endpoint L2 distance to the ground truth's, shape (K,)."""
    trajectories, gt = _checked(trajectories, gt)
    return np.linalg.norm(trajectories[:, -1, :] - gt[-1], axis=1)


def min_ade(trajectories: np.ndarray, gt: np.ndarray) -> float:
    """Smallest mean pointwise L2 distance over modes."""
    trajectories, gt = _checked(trajectories, gt)
    d = np.linalg.norm(trajectories - gt[None], axis=2).mean(axis=1)
    return float(d.min())


def min_fde(trajectories: np.ndarray, gt: np.ndarray) -> float:
    """Endpoint L2 distance of the closest-endpoint mode."""
    return float(_endpoint_errors(trajectories, gt).min())


def best_mode(trajectories: np.ndarray, gt: np.ndarray) -> int:
    """Index of the closest-endpoint mode; ties go to the lowest index."""
    return int(_endpoint_errors(trajectories, gt).argmin())


def is_miss(final_error):
    """The miss rule: a best endpoint error strictly above MISS_THRESHOLD
    (elementwise for an array of errors)."""
    return np.asarray(final_error, dtype=np.float64) > MISS_THRESHOLD


def miss_rate(final_errors) -> float:
    """Fraction of scenes whose best endpoint error is a miss."""
    errors = np.asarray(list(final_errors), dtype=np.float64)
    if errors.size == 0:
        raise ValueError("at least one scene required")
    return float(is_miss(errors).mean())


def brier(p_best: float) -> float:
    if not 0.0 <= p_best <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p_best}")
    return (1.0 - p_best) ** 2


def brier_min_fde(fde: float, p_best: float) -> float:
    return fde + brier(p_best)


@dataclass
class SceneMetrics:
    min_ade: float
    min_fde: float
    missed: bool
    best_prob: float
    brier: float
    brier_min_fde: float


@dataclass
class MetricReport:
    n_scenes: int
    k: int
    min_ade: float
    min_fde: float
    miss_rate: float
    brier: float
    brier_min_fde: float


def score_forecast(trajectories: np.ndarray, probs: np.ndarray, gt: np.ndarray) -> SceneMetrics:
    """Per-scene metrics for a K-mode forecast against one GT future."""
    errors = _endpoint_errors(trajectories, gt)
    fde = float(errors.min())
    p_best = float(np.asarray(probs)[errors.argmin()])
    return SceneMetrics(
        min_ade=min_ade(trajectories, gt),
        min_fde=fde,
        missed=bool(is_miss(fde)),
        best_prob=p_best,
        brier=brier(p_best),
        brier_min_fde=brier_min_fde(fde, p_best),
    )


def aggregate(scene_metrics, k: int) -> MetricReport:
    """Unweighted mean over scenes."""
    ms = list(scene_metrics)
    if not ms:
        raise ValueError("at least one scene required")
    return MetricReport(
        n_scenes=len(ms),
        k=k,
        min_ade=float(np.mean([m.min_ade for m in ms])),
        min_fde=float(np.mean([m.min_fde for m in ms])),
        miss_rate=miss_rate(m.min_fde for m in ms),
        brier=float(np.mean([m.brier for m in ms])),
        brier_min_fde=float(np.mean([m.brier_min_fde for m in ms])),
    )


def format_report_table(reports: dict) -> str:
    """Aligned-column text table, one row per named report."""
    headers = ["method", "n", "MR", "minADE", "minFDE", "brier-minFDE", "Brier"]
    rows = []
    for name, r in reports.items():
        rows.append([name, str(r.n_scenes), f"{r.miss_rate:.4f}", f"{r.min_ade:.4f}",
                     f"{r.min_fde:.4f}", f"{r.brier_min_fde:.4f}", f"{r.brier:.4f}"])
    widths = [max([len(h)] + [len(row[i]) for row in rows]) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
