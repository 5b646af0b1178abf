"""Grid-based maximum-entropy IRL.

A per-cell reward map is trained so that the soft-optimal policy's expected
state visitations match those of quantized expert demonstrations. The plan
runs in probability space, as in Algorithm 1 of Ziebart et al. (2008); moves
are deterministic and land in a cell's 3x3 neighbourhood, so each step of
either pass is one 3x3 box sum, on the window ``anchor ± t`` only (grid.window).

Backward pass: with beta_H = 1, step t shifts the reward on ``anchor ± (t+1)``
by its maximum M_t there, forms u_t = exp(R - M_t) beta_{t+1} on that window,
its box sum n_t(s) = sum_a u_t(s + a) (a move off the grid adds 0) and beta_t
= n_t / s_t, rescaled by s_t = max n_t as Rabiner (1989) scales HMM messages.
Then log Z = sum_t (M_t + log s_t), and pi_t(a | s) = u_t(s + a) / n_t(s) is
the local action probability Z_a / Z_s; the enumeration oracle in
:mod:`gridcast.oracle` checks the path distribution on small grids. Forward
pass: from D_0 = delta(anchor), q_t = D_t / n_t and D_{t+1}(s') = u_t(s')
sum_a q_t(s' - a), which conserves mass by construction: sum_s' D_{t+1}(s')
= sum_s q_t(s) n_t(s) = sum_s D_t(s).

Underflow: the shift keeps the largest weight of each window at 1, so s_t <=
9. A weight or u_t below the smallest normal float TINY loses at most 2 TINY,
and a loss of x in u_t(s') moves Z, relative, by at most x times the weight of
s', the sum over paths to s' of their weights divided by s_0 ... s_t, which is
at most 9^(t+1) / (s_0 ... s_t). So a plan is exact to float64 rounding while
H 9^H 2 TINY / (s_0 ... s_{H-1}) stays below eps, and the backward pass raises
IrlDivergenceError once it passes eps, also when a whole window underflows
(s_t < TINY), before rescaling could divide 0 by 0. No plan the pass returns
is wrong beyond rounding. The bound is loose: it refuses some rewards that
span hundreds of nats although they plan exactly, while the benchmark's fits
stay 600 nats inside it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .grid import (
    N_ACTIONS,
    CellIndex,
    GridSpec,
    eight_connected_line,
    cells_adjacent,
    neighbourhood,
    padded_map,
    quantize_trajectory,
    window,
)
from . import rng


class IrlDivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or parameters, or when
    a plan underflows (module docstring); ``iteration`` is the fit's, if any."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message if iteration is None else f"{message} (iteration {iteration})")
        self.iteration = iteration


# ---------------------------------------------------------------------------
# Reward map
# ---------------------------------------------------------------------------

@dataclass
class RewardMapParams:
    """Parameters of the per-cell feature-to-reward map.

    ``linear`` mode: reward = features @ w. ``two_layer`` mode applies an
    affine layer, a rectifier, and a linear layer, identically at every cell.
    Neither has an output bias: every path makes the same number of moves,
    so a constant added to every cell leaves the path distribution unchanged
    and could not be fitted. The same container doubles as a gradient holder
    in the optimizer.
    """

    mode: str
    w: np.ndarray | None = None
    w1: np.ndarray | None = None
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None

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
            return self.w.copy()
        return np.concatenate([self.w1.ravel(), self.b1, self.w2])

    def with_vector(self, vec: np.ndarray) -> "RewardMapParams":
        if self.mode == "linear":
            return replace(self, w=vec.copy())
        h, f = self.w1.shape
        w1 = vec[: h * f].reshape(h, f).copy()
        b1 = vec[h * f: h * f + h].copy()
        w2 = vec[h * f + h:].copy()
        return replace(self, w1=w1, b1=b1, w2=w2)


def reward_forward(features: np.ndarray, params: RewardMapParams) -> np.ndarray:
    """Per-cell reward, the network output as it is."""
    if not np.all(np.isfinite(features)):
        raise ValueError("feature stack contains non-finite values")
    if params.mode == "linear":
        return features @ params.w
    z = features @ params.w1.T + params.b1
    return np.maximum(z, 0.0) @ params.w2


def reward_backward(features: np.ndarray, params: RewardMapParams,
                    grad_reward: np.ndarray) -> RewardMapParams:
    """Exact gradient of sum_s grad_reward(s) * R(s) w.r.t. params."""
    if not np.all(np.isfinite(grad_reward)):
        raise ValueError("grad_reward contains non-finite values")
    g = grad_reward
    if params.mode == "linear":
        grad_w = np.tensordot(g, features, axes=([0, 1], [0, 1]))
        return RewardMapParams(mode="linear", w=grad_w)
    z = features @ params.w1.T + params.b1
    act = np.maximum(z, 0.0)
    grad_w2 = np.tensordot(g, act, axes=([0, 1], [0, 1]))
    grad_z = g[..., None] * params.w2 * (z > 0.0)
    grad_b1 = grad_z.sum(axis=(0, 1))
    grad_w1 = np.tensordot(grad_z, features, axes=([0, 1], [0, 1]))
    return RewardMapParams(mode="two_layer", w1=grad_w1, b1=grad_b1, w2=grad_w2)


# ---------------------------------------------------------------------------
# Planning and visitations
# ---------------------------------------------------------------------------

Window = tuple[slice, slice]  # (row_slice, col_slice) with explicit bounds (grid.window)

TINY = np.finfo(np.float64).tiny
# the log of eps / (2 TINY): the underflow bound of the module docstring
# keeps a plan exact to float64 rounding while H 9^H / (s_0 ... s_{H-1}) is below it
LOG_ROUNDING = math.log(np.finfo(np.float64).eps / (2 * TINY))
UNDERFLOW = "the reward spans more than float64 holds in probability space"


def _box_sum(padded: np.ndarray, spec: GridSpec, win: Window, weights: np.ndarray) -> np.ndarray:
    """sum_a k_a padded(s + a) over the cells s of ``win``, for the (3, 3)
    action weights k (grid.neighbourhood order)."""
    moves = neighbourhood(padded, spec, win)
    return (weights.ravel() @ moves.reshape(N_ACTIONS, -1)).reshape(moves.shape[2:])


@dataclass(frozen=True)
class Policy:
    """pi_t(a | s) = k_a u_t(s + a) / n_t(s) on the grid ``spec``, for steps
    t < horizon, on windows[t] = ``anchor ± t``. ``weights`` is k, (3, 3) with
    entry (dr+1, dc+1) for the move (dr, dc); ``succ[t]`` is u_t on
    windows[t+1] (a move off the grid reads 0). normaliser(t) is n_t(s) = sum_a
    k_a u_t(s + a) on windows[t], ``norm[t]`` when the planner gives it. Raises
    ValueError for no steps or a successor map whose shape is not its window's."""

    spec: GridSpec
    weights: np.ndarray
    succ: list[np.ndarray]
    norm: list[np.ndarray] | None = None
    windows: list[Window] = field(init=False)

    def __post_init__(self):
        if not self.succ:
            raise ValueError("a policy needs at least one step")
        object.__setattr__(self, "windows", reach_windows(self.spec, self.horizon))
        for t, (u, (rows, cols)) in enumerate(zip(self.succ, self.windows[1:])):
            if np.shape(u) != (rows.stop - rows.start, cols.stop - cols.start):
                raise ValueError(f"successor map {t} has shape {np.shape(u)}, its window "
                                 f"needs {(rows.stop - rows.start, cols.stop - cols.start)}")

    @property
    def horizon(self) -> int:
        return len(self.succ)

    def _padded(self, t: int) -> np.ndarray:
        padded = padded_map(self.spec, 0.0)
        padded[1:-1, 1:-1][self.windows[t + 1]] = self.succ[t]
        return padded

    def normaliser(self, t: int) -> np.ndarray:
        if self.norm is not None:
            return self.norm[t]
        return _box_sum(self._padded(t), self.spec, self.windows[t], self.weights)

    def probs(self, t: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """pi_t(. | s) at the grid cells s = (rows, cols) of windows[t], shape
        rows.shape + (9,); a cell with n_t = 0, which no mass reaches, gets 0s."""
        moves = neighbourhood(self._padded(t), self.spec)[:, :, rows, cols].reshape(N_ACTIONS, -1)
        moves *= self.weights.reshape(N_ACTIONS, 1)
        win_rows, win_cols = self.windows[t]
        n = self.normaliser(t)[rows - win_rows.start, cols - win_cols.start].reshape(1, -1)
        np.divide(moves, n, out=moves, where=n > 0.0)  # n = 0 only where every move is 0
        return moves.T.reshape(np.shape(rows) + (N_ACTIONS,))

    def __call__(self, t: int) -> np.ndarray:
        """The read-only (h, w, 9) table of pi_t on windows[t], built on each call."""
        table = self.probs(t, *np.mgrid[self.windows[t]])
        table.flags.writeable = False
        return table


def reach_windows(spec: GridSpec, horizon: int) -> list[Window]:
    """Step t's window is ``anchor ± t``, for t = 0..horizon: where the target
    can be at step t. Step t's successors lie in window t+1 or off the grid."""
    return [window(spec, t) for t in range(horizon + 1)]


def soft_value_iteration(reward: np.ndarray, spec: GridSpec, horizon: int):
    """The backward pass of the module docstring. Returns (log_partition,
    policy): log Z and the soft-optimal Policy, k = 1 and u_t = exp(R - M_t)
    beta_{t+1}. Raises IrlDivergenceError once the underflow bound of the
    module docstring passes float64 rounding."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    reward = np.asarray(reward, dtype=np.float64)
    if reward.shape != (spec.rows, spec.cols):
        raise ValueError(f"reward shape {reward.shape} != grid {(spec.rows, spec.cols)}")
    windows = reach_windows(spec, horizon)
    padded, ones = padded_map(spec, 0.0), np.ones((3, 3))
    succ, norm = [None] * horizon, [None] * horizon
    beta, log_partition, gain = 1.0, 0.0, math.log(horizon)
    for t in range(horizon - 1, -1, -1):
        r = reward[windows[t + 1]]
        top = r.max()
        u = np.exp(r - top)
        u *= beta
        padded[1:-1, 1:-1][windows[t + 1]] = u
        n = _box_sum(padded, spec, windows[t], ones)
        scale = n.max()
        gain += math.log(N_ACTIONS / scale) if scale >= TINY else math.inf
        if not gain <= LOG_ROUNDING:
            raise IrlDivergenceError(f"the plan underflows at step {t}: {UNDERFLOW}")
        log_partition += float(top) + math.log(scale)
        beta = n / scale
        succ[t], norm[t] = u, n
    # beta_0 is the anchor's n_0 / s_0 = 1
    return log_partition, Policy(spec, ones, succ, norm)


def expected_visitation(policy: Policy, summed: bool = False) -> np.ndarray:
    """The forward pass: per-step state distributions D on the policy's grid,
    shape (horizon+1, rows, cols), from D_0 = delta(anchor) and D_{t+1}(s') =
    u_t(s') sum_a k_a q_t(s' - a) with q_t = D_t / n_t, step t on windows[t].
    With ``summed``, only their sum over t >= 1, the expected visit counts
    E[mu] of shape (rows, cols).
    """
    spec, horizon = policy.spec, policy.horizon
    visits = np.zeros((spec.rows, spec.cols) if summed else (horizon + 1, spec.rows, spec.cols))
    if not summed:
        visits[0, spec.anchor.row, spec.anchor.col] = 1.0
    padded = padded_map(spec, 0.0)
    inflow = policy.weights[::-1, ::-1]  # sum_a k_a q(s' - a) = sum_b k_{-b} q(s' + b)
    d = np.ones((1, 1))
    for t in range(horizon):
        win, reach = policy.windows[t], policy.windows[t + 1]
        q = np.zeros_like(d)  # a cell with n_t = 0 holds no mass: q = 0, not 0/0
        np.divide(d, policy.normaliser(t), out=q, where=d > 0.0)
        padded[1:-1, 1:-1][win] = q
        d = policy.succ[t] * _box_sum(padded, spec, reach, inflow)
        (visits if summed else visits[t + 1])[reach] += d
    return visits


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


def _demonstration(path: list[CellIndex], horizon: int) -> Demonstration:
    """The path truncated to horizon+1 states or padded with terminal STAYs."""
    return Demonstration(cells=tuple((path + [path[-1]] * horizon)[: horizon + 1]))


def build_demonstration(future_points, spec: GridSpec, horizon: int) -> Demonstration:
    """Quantize a future trajectory into an expert path of exactly horizon+1 states.

    The future is resampled time-uniformly onto the planning cadence (one
    supervision point per planning step), so slow segments become repeated
    cells, i.e. STAY actions, and the expert path carries the speed profile.
    Steps faster than one cell are made reachable by inserting intermediate
    cells on the 8-connected line; the result is truncated to horizon+1 states
    or padded with terminal STAYs. Both builders start from the origin, the
    target's position, which quantises to the anchor cell.
    """
    pts = np.asarray(future_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected >= 1 future points, got shape {pts.shape}")
    n = pts.shape[0]
    picks = np.ceil(np.arange(1, horizon + 1) * n / horizon).astype(int) - 1
    per_step, _ = quantize_trajectory(np.vstack([(0.0, 0.0), pts[picks]]), spec)
    path: list[CellIndex] = []
    for cell in per_step:
        if cell is None:
            break  # supervision truncates at the grid boundary
        if path and not cells_adjacent(path[-1], cell):
            path.extend(eight_connected_line(path[-1], cell))
        path.append(cell)
    return _demonstration(path, horizon)


def build_path_demonstration(future_points, spec: GridSpec, horizon: int) -> Demonstration:
    """Expert path from the deduplicated spatial route, one cell per step.

    Complements build_demonstration for long-horizon supervision: the route's
    spatial extent enters at full resolution while its timing is dropped.
    Truncated to horizon+1 states or padded with terminal STAYs.
    """
    pts = np.asarray(future_points, dtype=np.float64)
    _, path = quantize_trajectory(np.vstack([(0.0, 0.0), pts]), spec)
    return _demonstration(path, horizon)


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

    nll = log Z - <R, mu_hat> for the expert's visit counts mu_hat;
    grad_R = E[mu] - mu_hat, the expected minus empirical visitation counts
    (descend it to raise likelihood).
    """
    log_partition, policy = soft_value_iteration(reward, spec, horizon)
    grad = expected_visitation(policy, summed=True)
    grad -= expert
    # <R, mu_hat> over the cells mu_hat visits: the same products in the same
    # order on any grid that holds them, so a box and its grid agree bitwise
    seen = np.flatnonzero(expert)
    return log_partition - float(reward.flat[seen] @ expert.flat[seen]), grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainDiagnostics:
    """nll_history[-1] and final_grad_inf belong to the last evaluated
    parameters; train_irl takes one more Adam step after that evaluation and
    returns the stepped parameters."""

    nll_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    final_grad_inf: float = float("nan")


def train_irl(features: np.ndarray, expert: np.ndarray, spec: GridSpec, config: RunConfig):
    """Fit the reward map by Adam on the MaxEnt NLL until |dNLL| < tol.

    ``features`` is the (rows, cols, F) raster of ``spec`` and ``expert`` the
    expert's visit counts mu_hat on it (expert_visitation); the fit plans from
    the anchor of ``spec`` over ``config.horizon`` steps. Each iteration logs
    one debug line (it, nll, grad_inf). Returns (params, diagnostics). Raises
    IrlDivergenceError when the loss or parameters go non-finite, reporting
    the offending iteration.
    """
    # the CLI imports and configures logging; a process that never imported it
    # cannot have enabled debug output, and importing it here would add ~0.4 MB
    # to the peak memory of every such process
    logging = sys.modules.get("logging")
    log = logging.getLogger(__name__) if logging else None
    horizon = config.horizon
    if features.shape[:2] != (spec.rows, spec.cols):
        raise ValueError(f"features shape {features.shape[:2]} != grid {(spec.rows, spec.cols)}")
    if np.shape(expert) != (spec.rows, spec.cols):
        raise ValueError(f"expert shape {np.shape(expert)} != grid {(spec.rows, spec.cols)}")
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
    prev_nll = None
    grad_inf = float("nan")

    for it in range(1, config.max_iters + 1):
        params = params.with_vector(vec)
        reward = reward_forward(features, params)
        try:
            nll, grad_r = irl_loss_and_grad(reward, expert, spec, horizon)
        except IrlDivergenceError as exc:
            raise IrlDivergenceError(str(exc), it) from None
        if not math.isfinite(nll):
            raise IrlDivergenceError("nll is non-finite", it)
        grad_vec = reward_backward(features, params, grad_r).as_vector()
        grad_inf = float(np.abs(grad_r).max())
        if log:
            log.debug("it=%d nll=%r grad_inf=%r", it, nll, grad_inf)
        diag.nll_history.append(nll)
        diag.iterations = it

        m = beta1 * m + (1 - beta1) * grad_vec
        v = beta2 * v + (1 - beta2) * grad_vec ** 2
        m_hat = m / (1 - beta1 ** it)
        v_hat = v / (1 - beta2 ** it)
        vec = vec - config.lr * m_hat / (np.sqrt(v_hat) + eps)

        if not np.all(np.isfinite(vec)):
            raise IrlDivergenceError("parameters are non-finite", it)
        if math.isinf(config.tol) or (prev_nll is not None and abs(nll - prev_nll) < config.tol):
            diag.converged = True
            break
        prev_nll = nll

    diag.final_grad_inf = grad_inf
    return params.with_vector(vec), diag
