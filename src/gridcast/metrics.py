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


def _check_modes(trajectories: np.ndarray) -> np.ndarray:
    trajectories = np.asarray(trajectories, dtype=np.float64)
    if trajectories.ndim != 3 or trajectories.shape[0] < 1:
        raise ValueError(f"expected K x T x 2 with K >= 1, got shape {trajectories.shape}")
    return trajectories


def min_ade(trajectories: np.ndarray, gt: np.ndarray) -> float:
    """Smallest mean pointwise L2 distance over modes."""
    trajectories = _check_modes(trajectories)
    d = np.linalg.norm(trajectories - np.asarray(gt)[None], axis=2).mean(axis=1)
    return float(d.min())


def min_fde(trajectories: np.ndarray, gt: np.ndarray) -> float:
    """Endpoint L2 distance of the closest-endpoint mode."""
    trajectories = _check_modes(trajectories)
    d = np.linalg.norm(trajectories[:, -1, :] - np.asarray(gt)[-1], axis=1)
    return float(d.min())


def best_mode(trajectories: np.ndarray, gt: np.ndarray) -> int:
    """Index of the closest-endpoint mode; ties go to the lowest index."""
    trajectories = _check_modes(trajectories)
    d = np.linalg.norm(trajectories[:, -1, :] - np.asarray(gt)[-1], axis=1)
    return int(d.argmin())


def miss_rate(final_errors) -> float:
    """Fraction of scenes whose best endpoint error strictly exceeds MISS_THRESHOLD."""
    errors = np.asarray(list(final_errors), dtype=np.float64)
    if errors.size == 0:
        raise ValueError("at least one scene required")
    return float((errors > MISS_THRESHOLD).mean())


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
    fde = min_fde(trajectories, gt)
    p_best = float(np.asarray(probs)[best_mode(trajectories, gt)])
    return SceneMetrics(
        min_ade=min_ade(trajectories, gt),
        min_fde=fde,
        missed=fde > MISS_THRESHOLD,
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
        miss_rate=float(np.mean([m.missed for m in ms])),
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
