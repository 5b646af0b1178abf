"""Grid-based maximum-entropy IRL.

A per-cell reward map is trained so that the soft-optimal policy's expected
state visitations match those of quantized expert demonstrations. Planning is
finite-horizon soft value iteration, which keeps only the value maps V_t; the
time-indexed policy pi_t(a | s) = exp(R(s') + V_{t+1}(s') - V_t(s)) is derived
from them one step at a time. The induced path distribution is
P(tau | s0) proportional to exp(sum of rewards over entered states), which the
enumeration oracle in :mod:`gridcast.oracle` verifies exactly on small grids.

train_irl fits on the box ``anchor ± horizon`` (grid.reachable_box): it cuts
the features and the expert's visit counts to the box once, and the loss runs
on whatever grid it is given. This is the full grid's fit in exact arithmetic.
A cell reached at step t lies within t moves of the anchor, so the target never
leaves the box: the NLL reads only box cells and the reward gradient
E[mu] - mu_hat is exactly 0 off it. The reward map's max-shift then runs over
the box, which neither NLL nor gradient sees, since sum(mu_hat) = sum(E[mu]) =
horizon makes a constant shift cancel. Only rounding differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .config import RunConfig
from .grid import (
    STAY,
    CellIndex,
    GridSpec,
    eight_connected_line,
    cells_adjacent,
    neighbour_views,
    padded_map,
    quantize_trajectory,
    reachable_box,
)
from . import rng


class IrlDivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or parameters."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


# ---------------------------------------------------------------------------
# Reward map
# ---------------------------------------------------------------------------

@dataclass
class RewardMapParams:
    """Parameters of the per-cell feature-to-reward map.

    ``linear`` mode: reward = features @ w + b. ``two_layer`` mode applies an
    affine layer, a rectifier, and a second affine layer, identically at every
    cell. The same container doubles as a gradient holder in the optimizer.
    """

    mode: str
    w: np.ndarray | None = None
    b: float = 0.0
    w1: np.ndarray | None = None
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None
    b2: float = 0.0

    @staticmethod
    def linear(n_features: int) -> "RewardMapParams":
        return RewardMapParams(mode="linear", w=np.zeros(n_features))

    @staticmethod
    def two_layer(n_features: int, hidden: int = 16, seed: int = 0) -> "RewardMapParams":
        scale1 = 1.0 / math.sqrt(n_features)
        scale2 = 1.0 / math.sqrt(hidden)
        u = rng.uniform(seed, rng.STREAM_PARAMS, np.arange(hidden * n_features + 2 * hidden))
        w1 = (u[: hidden * n_features].reshape(hidden, n_features) - 0.5) * 2 * scale1
        b1 = (u[hidden * n_features: hidden * n_features + hidden] - 0.5) * 0.1
        w2 = (u[hidden * n_features + hidden:] - 0.5) * 2 * scale2
        return RewardMapParams(mode="two_layer", w1=w1, b1=b1, w2=w2)

    def as_vector(self) -> np.ndarray:
        if self.mode == "linear":
            return np.concatenate([self.w, [self.b]])
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    def with_vector(self, vec: np.ndarray) -> "RewardMapParams":
        if self.mode == "linear":
            return replace(self, w=vec[:-1].copy(), b=float(vec[-1]))
        h, f = self.w1.shape
        w1 = vec[: h * f].reshape(h, f).copy()
        b1 = vec[h * f: h * f + h].copy()
        w2 = vec[h * f + h: h * f + 2 * h].copy()
        return replace(self, w1=w1, b1=b1, w2=w2, b2=float(vec[-1]))


def _reward_raw(features: np.ndarray, params: RewardMapParams) -> np.ndarray:
    if params.mode == "linear":
        return features @ params.w + params.b
    z = features @ params.w1.T + params.b1
    return np.maximum(z, 0.0) @ params.w2 + params.b2


def reward_forward(features: np.ndarray, params: RewardMapParams) -> np.ndarray:
    """Per-cell reward, shifted so the maximum over cells is exactly zero.

    The shift stabilizes planning and leaves the policy unchanged; it is
    treated as a constant in backprop (see reward_backward).
    """
    if not np.all(np.isfinite(features)):
        raise ValueError("feature stack contains non-finite values")
    raw = _reward_raw(features, params)
    return raw - raw.max()


def reward_backward(features: np.ndarray, params: RewardMapParams,
                    grad_reward: np.ndarray) -> RewardMapParams:
    """Exact gradient of sum_s grad_reward(s) * R_unshifted(s) w.r.t. params."""
    if not np.all(np.isfinite(grad_reward)):
        raise ValueError("grad_reward contains non-finite values")
    g = grad_reward
    if params.mode == "linear":
        grad_w = np.tensordot(g, features, axes=([0, 1], [0, 1]))
        return RewardMapParams(mode="linear", w=grad_w, b=float(g.sum()))
    z = features @ params.w1.T + params.b1
    act = np.maximum(z, 0.0)
    grad_w2 = np.tensordot(g, act, axes=([0, 1], [0, 1]))
    grad_z = g[..., None] * params.w2 * (z > 0.0)
    grad_b1 = grad_z.sum(axis=(0, 1))
    grad_w1 = np.tensordot(grad_z, features, axes=([0, 1], [0, 1]))
    return RewardMapParams(mode="two_layer", w1=grad_w1, b1=grad_b1,
                           w2=grad_w2, b2=float(g.sum()))


# ---------------------------------------------------------------------------
# Planning and visitations
# ---------------------------------------------------------------------------

# policy(t) -> pi_t(a | s), shape (rows, cols, 9); off-grid actions have prob 0
Policy = Callable[[int], np.ndarray]


def _successor_gains(reward: np.ndarray, spec: GridSpec):
    """gains(V_next) -> (9, rows, cols): R(s') + V_next(s') at each action's
    successor s', -inf where the move leaves the grid."""
    padded = padded_map(spec, -np.inf)
    views = neighbour_views(padded, spec)

    def gains(next_values: np.ndarray) -> np.ndarray:
        np.add(reward, next_values, out=views[STAY])
        return np.stack(views)

    return gains


def soft_value_iteration(reward: np.ndarray, spec: GridSpec, horizon: int) -> np.ndarray:
    """Backward soft Bellman recursion with terminal V_horizon = 0.

    V_t(s) = logsumexp over in-grid successors s' of R(s') + V_{t+1}(s').
    Returns the value maps, shape (horizon+1, rows, cols); soft_policy derives
    the policy from them.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    reward = np.asarray(reward, dtype=np.float64)
    if reward.shape != (spec.rows, spec.cols):
        raise ValueError(f"reward shape {reward.shape} != grid {(spec.rows, spec.cols)}")
    gains = _successor_gains(reward, spec)
    values = np.zeros((horizon + 1, spec.rows, spec.cols))
    for t in range(horizon - 1, -1, -1):
        q = gains(values[t + 1])
        # logsumexp over actions; STAY is always valid so the max is finite
        m = q.max(axis=0)
        values[t] = m + np.log(np.exp(q - m).sum(axis=0))
    return values


def soft_policy(values: np.ndarray, reward: np.ndarray, spec: GridSpec) -> Policy:
    """The soft-optimal policy pi_t(a | s) = exp(R(s') + V_{t+1}(s') - V_t(s)).

    Each step is computed on demand from the value maps; off-grid actions get
    exp(-inf) = 0. V_t(s) is the logsumexp of the exponents it is subtracted
    from, so every exponent is <= 0 and no finite reward can overflow it.
    """
    gains = _successor_gains(reward, spec)

    def policy(t: int) -> np.ndarray:
        # action-major storage keeps each action's block contiguous
        return np.moveaxis(np.exp(gains(values[t + 1]) - values[t]), 0, -1)

    return policy


def expected_visitation(policy: Policy, spec: GridSpec, horizon: int) -> np.ndarray:
    """Per-step state distributions D, shape (horizon+1, rows, cols), from the
    forward pass D_0 = delta(anchor), D_{t+1} = sum_s,a D_t pi_t routed by steps."""
    per_step = np.zeros((horizon + 1, spec.rows, spec.cols))
    per_step[0, spec.anchor.row, spec.anchor.col] = 1.0
    # off-grid moves carry no mass, so the border only ever receives zeros
    landed = padded_map(spec, 0.0)
    views = neighbour_views(landed, spec)
    for t in range(horizon):
        flow = per_step[t] * np.moveaxis(policy(t), -1, 0)
        for view, mass in zip(views, flow):
            view += mass
        per_step[t + 1] = views[STAY]
        landed.fill(0.0)
    return per_step


# ---------------------------------------------------------------------------
# Demonstrations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Demonstration:
    """An expert state sequence of length horizon + 1, pairwise adjacent."""

    cells: tuple[CellIndex, ...]

    def __post_init__(self):
        if len(self.cells) < 2:
            raise ValueError("demonstration needs at least 2 states")
        for a, b in zip(self.cells, self.cells[1:]):
            if not cells_adjacent(a, b):
                raise ValueError(f"demonstration jump {a} -> {b} is not 8-connected")

    def __len__(self) -> int:
        return len(self.cells)


def build_demonstration(future_points, spec: GridSpec, horizon: int) -> Demonstration:
    """Quantize a future trajectory into an expert path of exactly horizon+1 states.

    The future is resampled time-uniformly onto the planning cadence (one
    supervision point per planning step), so slow segments become repeated
    cells, i.e. STAY actions, and the expert path carries the speed profile.
    Steps faster than one cell are made reachable by inserting intermediate
    cells on the 8-connected line; the result is truncated to horizon+1 states
    or padded with terminal STAYs.
    """
    pts = np.asarray(future_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected >= 1 future points, got shape {pts.shape}")
    n = pts.shape[0]
    picks = np.ceil(np.arange(1, horizon + 1) * n / horizon).astype(int) - 1
    sampled = np.vstack([np.asarray(spec.anchor_world, dtype=np.float64), pts[picks]])
    per_step, _ = quantize_trajectory(sampled, spec)
    if per_step[0] != spec.anchor:
        raise ValueError("demonstration does not start at the anchor cell")
    path: list[CellIndex] = []
    for cell in per_step:
        if cell is None:
            break  # supervision truncates at the grid boundary
        if path and not cells_adjacent(path[-1], cell):
            path.extend(eight_connected_line(path[-1], cell))
        path.append(cell)
    if len(path) > horizon + 1:
        path = path[: horizon + 1]
    else:
        path = path + [path[-1]] * (horizon + 1 - len(path))
    return Demonstration(cells=tuple(path))


def build_path_demonstration(future_points, spec: GridSpec, horizon: int) -> Demonstration:
    """Expert path from the deduplicated spatial route, one cell per step.

    Complements build_demonstration for long-horizon supervision: the route's
    spatial extent enters at full resolution while its timing is dropped.
    Truncated to horizon+1 states or padded with terminal STAYs.
    """
    pts = np.asarray(future_points, dtype=np.float64)
    all_pts = np.vstack([np.asarray(spec.anchor_world, dtype=np.float64), pts])
    _, path = quantize_trajectory(all_pts, spec)
    if not path or path[0] != spec.anchor:
        raise ValueError("demonstration does not start at the anchor cell")
    if len(path) > horizon + 1:
        path = path[: horizon + 1]
    else:
        path = path + [path[-1]] * (horizon + 1 - len(path))
    return Demonstration(cells=tuple(path))


def expert_visitation(demos, spec: GridSpec, horizon: int) -> np.ndarray:
    """The expert's visit counts mu_hat, shape (rows, cols): visits of each cell
    over steps 1..horizon, summed over demonstrations that start at the anchor
    and divided by their number."""
    demos = list(demos)
    if not demos:
        raise ValueError("at least one demonstration required")
    counts = np.zeros((spec.rows, spec.cols))
    for demo in demos:
        if len(demo) < horizon + 1:
            raise ValueError(f"demonstration length {len(demo)} shorter than horizon+1 = {horizon + 1}")
        if demo.cells[0] != spec.anchor:
            raise ValueError(f"demonstration starts at {demo.cells[0]}, expected {spec.anchor}")
        for cell in demo.cells[1: horizon + 1]:
            if not spec.contains(cell.row, cell.col):
                raise ValueError(f"demonstration cell {cell} outside grid")
            counts[cell.row, cell.col] += 1.0
    return counts / len(demos)


def irl_loss_and_grad(reward: np.ndarray, expert: np.ndarray, spec: GridSpec, horizon: int):
    """MaxEnt negative log-likelihood and its exact gradient w.r.t. the reward.

    nll = V_0(anchor) - <R, mu_hat> for the expert's visit counts mu_hat;
    grad_R = E[mu] - mu_hat, the expected minus empirical visitation counts
    (descend it to raise likelihood).
    """
    values = soft_value_iteration(reward, spec, horizon)
    visits = expected_visitation(soft_policy(values, reward, spec), spec, horizon)
    nll = float(values[0, spec.anchor.row, spec.anchor.col]) - float(np.vdot(reward, expert))
    return nll, visits[1:].sum(axis=0) - expert


def _nll_only(reward: np.ndarray, expert: np.ndarray, spec: GridSpec, horizon: int) -> float:
    values = soft_value_iteration(reward, spec, horizon)
    return float(values[0, spec.anchor.row, spec.anchor.col]) - float(np.vdot(reward, expert))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainDiagnostics:
    nll_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    final_grad_inf: float = float("nan")


def train_irl(features: np.ndarray, demos, config: RunConfig):
    """Fit the reward map by descending the MaxEnt NLL until |dNLL| < tol.

    ``features`` is the (rows, cols, F) raster of ``config.grid_spec()``; the
    fit plans from its anchor over ``config.horizon`` steps on the reachable
    box, cut out of the features and the expert's visit counts once.
    ``optimizer`` "gd" backtracks to keep the loss monotone. Returns (params,
    diagnostics). Raises IrlDivergenceError when the loss or parameters go
    non-finite, reporting the offending iteration.
    """
    grid = config.grid_spec()
    horizon = config.horizon
    if features.shape[:2] != (grid.rows, grid.cols):
        raise ValueError(f"features shape {features.shape[:2]} != grid {(grid.rows, grid.cols)}")
    spec, window = reachable_box(grid, horizon)
    expert = expert_visitation(demos, grid, horizon)[window]
    features = np.ascontiguousarray(features[window])
    n_features = features.shape[-1]
    if config.reward_mode == "linear":
        params = RewardMapParams.linear(n_features)
    elif config.reward_mode == "two_layer":
        params = RewardMapParams.two_layer(n_features, config.hidden, config.seed)
    else:
        raise ValueError(f"unknown reward mode {config.reward_mode!r}")

    diag = TrainDiagnostics()
    vec = params.as_vector()
    m = np.zeros_like(vec)
    v = np.zeros_like(vec)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    gd_lr = config.lr
    prev_nll = None
    grad_inf = float("nan")

    for it in range(1, config.max_iters + 1):
        params = params.with_vector(vec)
        reward = reward_forward(features, params)
        nll, grad_r = irl_loss_and_grad(reward, expert, spec, horizon)
        if not math.isfinite(nll):
            raise IrlDivergenceError("nll is non-finite", it)
        grad_vec = reward_backward(features, params, grad_r).as_vector()
        grad_inf = float(np.abs(grad_r).max())
        diag.nll_history.append(nll)
        diag.iterations = it

        if config.optimizer == "adam":
            m = beta1 * m + (1 - beta1) * grad_vec
            v = beta2 * v + (1 - beta2) * grad_vec ** 2
            m_hat = m / (1 - beta1 ** it)
            v_hat = v / (1 - beta2 ** it)
            vec = vec - config.lr * m_hat / (np.sqrt(v_hat) + eps)
        elif config.optimizer == "gd":
            # backtracking keeps the loss monotone; lr regrows after success
            stepped = False
            for _ in range(30):
                trial = vec - gd_lr * grad_vec
                trial_nll = _nll_only(
                    reward_forward(features, params.with_vector(trial)),
                    expert, spec, horizon)
                if math.isfinite(trial_nll) and trial_nll <= nll:
                    vec = trial
                    gd_lr = min(gd_lr * 1.25, 1e3)
                    stepped = True
                    break
                gd_lr *= 0.5
            if not stepped:
                diag.converged = True
                break
        else:
            raise ValueError(f"unknown optimizer {config.optimizer!r}")

        if not np.all(np.isfinite(vec)):
            raise IrlDivergenceError("parameters are non-finite", it)
        if math.isinf(config.tol) or (prev_nll is not None and abs(nll - prev_nll) < config.tol):
            diag.converged = True
            break
        prev_nll = nll

    diag.final_grad_inf = grad_inf
    return params.with_vector(vec), diag
