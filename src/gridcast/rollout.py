"""From policy rollouts to multimodal trajectory forecasts.

Samples intention paths from the planner's policy, converts them to
constant-speed continuous proposals, clusters them into K anchor modes,
smooths each anchor with offset refinement (final trajectory = anchor +
offset, exactly), and scores modes by rollout frequency blended with a
reward softmax.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .grid import ACTION_OFFSETS, GridSpec, cell_to_world
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
    lie on the policy's grid (ValueError otherwise).

    Paths step as flat cell indices row * cols + col. Step t reads the
    cumulative pi_t at the paths' cells (Policy.cumulative), which lie in the
    policy's windows[t], since windows[t] holds every cell reachable in t
    moves; each path takes the first action whose cumulative probability
    passes its draw and adds that move's flat offset. A move of probability 0
    is never drawn, so no index wraps across a row; a path at a cell with no
    move raises ValueError naming the step and the cell.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    spec, horizon = policy.spec, policy.horizon
    if np.shape(reward) != (spec.rows, spec.cols):
        raise ValueError(f"reward shape {np.shape(reward)} != policy grid {(spec.rows, spec.cols)}")
    moves = ACTION_OFFSETS[:, 0] * spec.cols + ACTION_OFFSETS[:, 1]
    streams = np.arange(count, dtype=np.int64) + rng.STREAM_ROLLOUT * (2 ** 32)
    # entry (t, i) is stream i's draw at counter t, as one call per step would draw it
    draws = rng.uniform(seed, streams, np.arange(horizon)[:, None])
    flat = np.empty((horizon + 1, count), dtype=np.int64)
    flat[0] = spec.anchor.row * spec.cols + spec.anchor.col
    flat_reward = reward.ravel()
    rewards = np.zeros(count)
    for t in range(horizon):
        # the first action whose cumulative probability passes the draw, which
        # is the number of entries the draw reaches: a row never decreases and
        # ends at exactly 1, above every draw
        action = (policy.cumulative(t, flat[t]) > draws[t, :, None]).argmax(axis=1)
        np.add(flat[t], moves.take(action), out=flat[t + 1])
        rewards += flat_reward.take(flat[t + 1])
    policy.check_moves(flat[:-1])
    cells = np.empty((count, horizon + 1, 2), dtype=np.int64)
    np.divmod(flat.T, spec.cols, out=(cells[..., 0], cells[..., 1]))
    return RolloutBatch(cells=cells, path_rewards=rewards)


def gather_path_features(batch: RolloutBatch, feature_stack: np.ndarray) -> RolloutBatch:
    """Attach per-step context features read at each entered cell."""
    gathered = feature_stack[batch.cells[:, 1:, 0], batch.cells[:, 1:, 1]]
    return replace(batch, features=gathered)


def path_polylines(cells, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (L, H+1, 2) cell-centre polylines of a rollout batch's (L, H+1, 2)
    cells, with their (L, H+1) cumulative arc lengths from 0.

    One cell_to_world over the batch, so a cell off the grid raises a
    ValueError once per batch. A STAY adds an exact 0 to the arc length.
    """
    points = cell_to_world(cells, spec)
    # segment lengths sqrt(dx*dx + dy*dy), the bits of linalg.norm over (dx, dy)
    seg = points[:, 1:] - points[:, :-1]
    seg *= seg
    length = seg[..., 0] + seg[..., 1]
    arc = np.empty(points.shape[:2])
    arc[:, 0] = 0.0
    np.sqrt(length, out=length).cumsum(axis=1, out=arc[:, 1:])
    return points, arc


def path_to_trajectory(points: np.ndarray, arc: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Resample one (H+1, 2) polyline of path_polylines at the arc lengths
    ``targets``, as a (len(targets), 2) array.

    A target past the path end holds its terminal point. Where a STAY repeats
    a knot, np.interp reads the repeated point, so the result is that of the
    polyline with the repeats dropped, bit for bit; an all-STAY path yields
    copies of its single cell centre.
    """
    out = np.empty((len(targets), 2))
    out[:, 0] = np.interp(targets, arc, points[:, 0])
    out[:, 1] = np.interp(targets, arc, points[:, 1])
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
    Each step ranks the centres by ||x||^2 - 2 x.c + ||c||^2 (one product,
    clamped at 0) and forms the centroids as one one-hot product over the
    counts, so its rounding differs from a per-pair difference and a mean.
    """
    proposals = np.asarray(proposals, dtype=np.float64)
    n, t, _ = proposals.shape
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= {n} proposals, got k={k}")
    x = proposals.reshape(n, -1)

    def pick(u: float, weights: np.ndarray | None) -> int:
        if weights is None or weights.sum() <= 0.0:
            return min(int(u * n), n - 1)
        cum = np.cumsum(weights)
        return int(np.searchsorted(cum, u * cum[-1], side="right").clip(0, n - 1))

    # draw j is counter j of the k-means stream, as one call per draw would give it
    draws = rng.uniform(seed, rng.STREAM_KMEANS, np.arange(k))
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[pick(draws[0], None)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = x[pick(draws[j], d2)]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))

    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    one_hot = np.eye(k)

    def distances(centers: np.ndarray) -> np.ndarray:
        """(n, k) squared distances, clamped at 0: cancellation can take an
        exact 0 below it."""
        dist = x @ centers.T
        dist *= -2.0
        dist += x_sq
        dist += np.einsum("ij,ij->i", centers, centers)
        return np.maximum(dist, 0.0, out=dist)

    inertia_history: list[float] = []
    n_iter = 0
    for n_iter in range(1, KMEANS_MAX_ITER + 1):
        dist = distances(centers)
        labels = dist.argmin(axis=1)
        inertia_history.append(float(dist[np.arange(n), labels].sum()))
        counts = np.bincount(labels, minlength=k)
        new_centers = one_hot[labels].T @ x
        new_centers /= np.maximum(counts, 1)[:, None]
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # the farthest points by each point's distance to its own centre,
            # from the difference: a rounding residue of the expanded form could
            # outrank the exact 0 of a point that sits on its centre
            own = x - centers[labels]
            own *= own
            own = own.sum(axis=1)
            for j in empties:
                far = int(own.argmax())
                new_centers[j] = x[far]
                own[far] = -1.0  # distinct reseeds when several clusters empty
        # the largest pointwise move, with the bits of linalg.norm over (dx, dy)
        move = new_centers - centers
        move *= move
        shift = np.sqrt(move.reshape(k, t, 2).sum(axis=2).max())
        centers = new_centers
        if shift < KMEANS_SHIFT_TOL:
            break
    labels = distances(centers).argmin(axis=1)
    return ClusterResult(anchors=centers.reshape(k, t, 2), membership=labels,
                         n_iter=n_iter, inertia_history=inertia_history)


@functools.lru_cache(maxsize=16)
def smoothing_operator(t: int, smooth_weight: float) -> np.ndarray:
    """The read-only (t, t) map A from a mode's anchor to its offsets on one
    axis: A = -w (I + w B^T B)^-1 B^T B, where B y holds the second
    differences j = 1 .. t-1 of [0, y_1 .. y_t], built with one solve.
    Memoised per (t, smooth_weight)."""
    d2 = np.zeros((t - 1, t + 1))
    for j in range(1, t):
        d2[j - 1, j - 1: j + 2] = (1.0, -2.0, 1.0)
    b = d2[:, 1:]
    btb = b.T @ b
    operator = np.linalg.solve(np.eye(t) + smooth_weight * btb, -smooth_weight * btb)
    operator.flags.writeable = False
    return operator


def refine_offsets(anchors: np.ndarray, smooth_weight: float) -> np.ndarray:
    """Per-mode offsets from curvature-regularized least squares.

    Minimizes ||dY||^2 + smooth_weight * ||second difference of [origin; Y]||^2
    per mode and axis: the trajectory is treated as emanating from the origin,
    which enters the difference operator as a fixed first point. The minimiser
    is linear in the anchor, so every mode and axis takes one product with
    smoothing_operator. At smooth_weight = 0 the offsets are exactly zero.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    _, t, _ = anchors.shape
    if not np.all(np.isfinite(anchors)):
        raise ValueError("anchors contain non-finite values")
    if smooth_weight == 0.0 or t < 2:
        return np.zeros_like(anchors)
    return np.matmul(smoothing_operator(t, smooth_weight), anchors)


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


def forecast_from_payload(payload, source: str, n_points: int,
                          n_modes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(trajectories, probs) of a forecast payload whose modes hold ``n_points``
    points each (and number ``n_modes``, when given); a malformed payload raises
    a ValueError that starts with ``source``."""
    modes = payload.get("modes") if isinstance(payload, dict) else None
    if not (isinstance(modes, list) and all(isinstance(m, dict) for m in modes)):
        raise ValueError(f"{source}: a forecast must be an object with a list of modes")
    try:
        trajs = np.asarray([m["points"] for m in modes])
        probs = np.asarray([m["prob"] for m in modes])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{source}: malformed modes: {exc!r}") from exc
    # numpy would read "1.0" as a number; JSON numbers only
    if trajs.dtype.kind not in "iuf" or probs.dtype.kind not in "iuf":
        raise ValueError(f"{source}: mode points and probabilities must be JSON numbers")
    trajs, probs = trajs.astype(np.float64), probs.astype(np.float64)
    if n_modes is not None and len(probs) != n_modes:
        raise ValueError(f"{source}: {len(probs)} modes, the first forecast has {n_modes}")
    if not (np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
            and abs(probs.sum() - 1.0) <= 1e-9):
        raise ValueError(f"{source}: mode probabilities {probs.tolist()} are not a "
                         "finite non-negative distribution summing to 1")
    if trajs.shape[1:] != (n_points, 2) or not np.all(np.isfinite(trajs)):
        raise ValueError(f"{source}: forecast points of shape {trajs.shape[1:]} are not "
                         f"{n_points} finite (x, y) points, the scene's future length")
    return trajs, probs


def write_forecast(path, forecast: Forecast, include_proposals: bool = False,
                   extra: dict | None = None) -> None:
    """Write the forecast file (forecast_to_payload plus ``extra``) as strict
    JSON; a NaN or infinity raises a ValueError naming ``path`` before the
    file is opened."""
    payload = forecast_to_payload(forecast, include_proposals)
    if extra:
        payload.update(extra)
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
