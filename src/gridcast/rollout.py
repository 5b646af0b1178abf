"""From policy rollouts to multimodal trajectory forecasts.

Samples intention paths from the planner's policy, converts them to
constant-speed continuous proposals, clusters them into K anchor modes,
smooths each anchor with offset refinement (final trajectory = anchor +
offset, exactly), and scores modes by rollout frequency blended with a
reward softmax.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .grid import ACTION_OFFSETS, N_ACTIONS, GridSpec, cell_to_world
from .irl import Policy

KMEANS_MAX_ITER = 100
KMEANS_SHIFT_TOL = 1e-6  # meters


@dataclass
class RolloutBatch:
    """Sampled intention paths with per-path rewards and gathered features."""

    cells: np.ndarray                 # (count, horizon + 1, 2) int
    path_rewards: np.ndarray          # (count,)
    features: np.ndarray | None = None  # (count, horizon, F) once gathered


@dataclass
class Forecast:
    """K-mode forecast: trajectories = anchors + offsets, probs sum to 1."""

    trajectories: np.ndarray  # (K, T, 2)
    anchors: np.ndarray       # (K, T, 2)
    offsets: np.ndarray       # (K, T, 2)
    probs: np.ndarray         # (K,)
    proposals: np.ndarray     # (L, T, 2)


def sample_rollouts(policy: Policy, reward: np.ndarray, count: int, seed: int) -> RolloutBatch:
    """Ancestral-sample ``count`` paths from the anchor of the policy's grid.

    Each rollout index owns an independent counter-based random stream, so the
    batch is reproducible regardless of execution order or thread count.
    Path rewards accumulate the reward of every entered state; ``reward`` must
    lie on the policy's grid (ValueError otherwise). Step t reads pi_t at the
    paths' cells (Policy.probs), which lie in the policy's windows[t], since
    windows[t] holds every cell reachable in t moves.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    spec, horizon = policy.spec, policy.horizon
    if np.shape(reward) != (spec.rows, spec.cols):
        raise ValueError(f"reward shape {np.shape(reward)} != policy grid {(spec.rows, spec.cols)}")
    streams = np.arange(count, dtype=np.int64) + rng.STREAM_ROLLOUT * (2 ** 32)
    cells = np.zeros((count, horizon + 1, 2), dtype=np.int64)
    cells[:, 0, 0] = spec.anchor.row
    cells[:, 0, 1] = spec.anchor.col
    rewards = np.zeros(count)
    r, c = cells[:, 0, 0].copy(), cells[:, 0, 1].copy()
    for t in range(horizon):
        cum = np.cumsum(policy.probs(t, r, c), axis=1)
        cum /= cum[:, -1:]
        u = rng.uniform(seed, streams, t)
        action = np.minimum((u[:, None] >= cum).sum(axis=1), N_ACTIONS - 1)
        r = r + ACTION_OFFSETS[action, 0]
        c = c + ACTION_OFFSETS[action, 1]
        cells[:, t + 1, 0] = r
        cells[:, t + 1, 1] = c
        rewards += reward[r, c]
    return RolloutBatch(cells=cells, path_rewards=rewards)


def gather_path_features(batch: RolloutBatch, feature_stack: np.ndarray) -> RolloutBatch:
    """Attach per-step context features read at each entered cell."""
    gathered = feature_stack[batch.cells[:, 1:, 0], batch.cells[:, 1:, 1]]
    return replace(batch, features=gathered)


def path_to_trajectory(path_cells, spec: GridSpec, n_points: int,
                       speed: float, dt: float) -> np.ndarray:
    """Resample a cell path into n_points at constant speed along its polyline.

    Sample i sits at arc length (i+1) * speed * dt, clamped to the path end
    (the terminal point is held once the path runs out). An all-STAY path
    yields n_points copies of its single cell center.
    """
    cells = np.asarray(path_cells, dtype=np.int64).reshape(-1, 2)
    keep = np.ones(len(cells), dtype=bool)
    keep[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    cells = cells[keep]
    xy = cell_to_world(cells, spec)
    if len(xy) == 1:
        return np.repeat(xy, n_points, axis=0)
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = (np.arange(1, n_points + 1)) * speed * dt
    out = np.empty((n_points, 2))
    out[:, 0] = np.interp(targets, cum, xy[:, 0])
    out[:, 1] = np.interp(targets, cum, xy[:, 1])
    return out


@dataclass
class ClusterResult:
    anchors: np.ndarray          # (K, T, 2)
    membership: np.ndarray       # (L,) int
    n_iter: int
    inertia_history: list[float]


def cluster_proposals(proposals: np.ndarray, k: int, seed: int) -> ClusterResult:
    """K-means over flattened trajectories with seeded k-means++ init.

    Runs at most ``KMEANS_MAX_ITER`` Lloyd iterations or until the largest
    pointwise centroid move drops below ``KMEANS_SHIFT_TOL`` meters. Empty
    clusters are re-seeded from the point farthest from its assigned centroid.
    """
    proposals = np.asarray(proposals, dtype=np.float64)
    n, t, _ = proposals.shape
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= {n} proposals, got k={k}")
    x = proposals.reshape(n, -1)

    def pick(counter: int, weights: np.ndarray | None) -> int:
        u = rng.uniform_scalar(seed, rng.STREAM_KMEANS, counter)
        if weights is None or weights.sum() <= 0.0:
            return min(int(u * n), n - 1)
        cum = np.cumsum(weights)
        return int(np.searchsorted(cum, u * cum[-1], side="right").clip(0, n - 1))

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[pick(0, None)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = x[pick(j, d2)]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    inertia_history: list[float] = []
    n_iter = 0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist.argmin(axis=1)
        inertia_history.append(float(dist[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = x[members].mean(axis=0)
        empties = [j for j in range(k) if not (labels == j).any()]
        if empties:
            own = dist[np.arange(n), labels].copy()
            for j in empties:
                far = int(own.argmax())
                new_centers[j] = x[far]
                own[far] = -1.0  # distinct reseeds when several clusters empty
        shift = np.linalg.norm(
            new_centers.reshape(k, t, 2) - centers.reshape(k, t, 2), axis=2).max()
        centers = new_centers
        if shift < KMEANS_SHIFT_TOL:
            break
    dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1)
    return ClusterResult(anchors=centers.reshape(k, t, 2), membership=labels,
                         n_iter=n_iter, inertia_history=inertia_history)


def refine_offsets(anchors: np.ndarray, smooth_weight: float) -> np.ndarray:
    """Per-mode offsets from curvature-regularized least squares.

    Minimizes ||dY||^2 + smooth_weight * ||second difference of [origin; Y]||^2
    per mode and axis: the trajectory is treated as emanating from the origin,
    which enters the difference operator as a fixed first point. At
    smooth_weight = 0 the offsets are exactly zero.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    k, t, _ = anchors.shape
    if not np.all(np.isfinite(anchors)):
        raise ValueError("anchors contain non-finite values")
    if smooth_weight == 0.0 or t < 2:
        return np.zeros_like(anchors)
    # D2 over the extended sequence [0, y_1 .. y_T]: rows j = 1 .. T-1
    d2 = np.zeros((t - 1, t + 1))
    for j in range(1, t):
        d2[j - 1, j - 1: j + 2] = (1.0, -2.0, 1.0)
    b = d2[:, 1:]
    m = np.eye(t) + smooth_weight * (b.T @ b)
    offsets = np.zeros_like(anchors)
    for mode in range(k):
        for axis in range(2):
            e = np.concatenate([[0.0], anchors[mode, :, axis]])
            rhs = -smooth_weight * (b.T @ (d2 @ e))
            offsets[mode, :, axis] = np.linalg.solve(m, rhs)
    return offsets


def score_modes(membership: np.ndarray, path_rewards: np.ndarray, k: int,
                temperature: float) -> np.ndarray:
    """Mode probabilities: frequency times a softmax over mean cluster reward."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    membership = np.asarray(membership)
    path_rewards = np.asarray(path_rewards, dtype=np.float64)
    counts = np.bincount(membership, minlength=k).astype(np.float64)
    logits = np.full(k, -np.inf)
    for j in range(k):
        if counts[j] > 0:
            mean_r = path_rewards[membership == j].mean()
            logits[j] = math.log(counts[j] / len(membership)) + mean_r / temperature
    m = logits[np.isfinite(logits)].max()
    p = np.exp(logits - m)  # exp(-inf) = 0 for empty clusters
    return p / p.sum()


def forecast_to_payload(forecast: Forecast, include_proposals: bool = False) -> dict:
    """JSON-ready dict: ordered modes with probabilities, anchors, optional proposals."""
    payload = {
        "version": 1,
        "modes": [
            {"prob": float(p), "points": traj.tolist()}
            for p, traj in zip(forecast.probs, forecast.trajectories)
        ],
        "anchors": forecast.anchors.tolist(),
    }
    if include_proposals:
        payload["proposals"] = forecast.proposals.tolist()
    return payload


def write_forecast(path, forecast: Forecast, include_proposals: bool = False,
                   extra: dict | None = None) -> None:
    payload = forecast_to_payload(forecast, include_proposals)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
