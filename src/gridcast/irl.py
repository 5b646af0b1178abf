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

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .grid import (
    N_ACTIONS,
    CellIndex,
    GridSpec,
    cells_adjacent,
    connect_cells,
    neighbourhood,
    padded_map,
    quantize_trajectory,
    successors,
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


# values of one block of the two-layer map's hidden layer: a block of grid
# rows (one at least) stays under 128 KiB, glibc's default mmap threshold, so
# a fit takes these temporaries from the heap and maps no fresh pages for them
# on each step (a (cells, hidden) layer of the default box is 540 KB)
HIDDEN_BLOCK_VALUES = 15 * 1024


def _hidden_blocks(features: np.ndarray, params: RewardMapParams):
    """Yield (rows, features[rows], z) over blocks of grid rows, z = the
    hidden layer's pre-activation features[rows] @ w1.T + b1 there. Each grid
    row is its own matrix product, so z is the same bits for any block size."""
    w1t = np.ascontiguousarray(params.w1.T)  # same bits as the transposed view, and faster
    step = max(1, HIDDEN_BLOCK_VALUES // (features.shape[1] * params.w1.shape[0]))
    for start in range(0, features.shape[0], step):
        rows = slice(start, start + step)
        block = features[rows]
        z = block @ w1t
        z += params.b1
        yield rows, block, z


def reward_forward(features: np.ndarray, params: RewardMapParams) -> np.ndarray:
    """Per-cell reward, the network output as it is."""
    if not np.all(np.isfinite(features)):
        raise ValueError("feature stack contains non-finite values")
    if params.mode == "linear":
        return features @ params.w
    reward = np.empty(features.shape[:2])
    for rows, _, z in _hidden_blocks(features, params):
        reward[rows] = np.maximum(z, 0.0, out=z) @ params.w2
    return reward


def reward_backward(features: np.ndarray, params: RewardMapParams,
                    grad_reward: np.ndarray) -> RewardMapParams:
    """Exact gradient of sum_s grad_reward(s) * R(s) w.r.t. params."""
    if not np.all(np.isfinite(grad_reward)):
        raise ValueError("grad_reward contains non-finite values")
    g = grad_reward
    # sum_s g(s) x(s) over the cells s as the (1, cells) @ (cells, k) product,
    # the one that tensordot forms, so the same bits at less cost per call
    if params.mode == "linear":
        grad_w = g.reshape(1, -1) @ features.reshape(-1, features.shape[-1])
        return RewardMapParams(mode="linear", w=grad_w[0])
    grad_w1, grad_b1, grad_w2 = (np.zeros_like(w) for w in (params.w1, params.b1, params.w2))
    for rows, f, z in _hidden_blocks(features, params):
        grad_z = g[rows, :, None] * params.w2
        grad_z *= z > 0.0
        act = np.maximum(z, 0.0, out=z)
        grad_w2 += (g[rows].reshape(1, -1) @ act.reshape(-1, act.shape[-1]))[0]
        grad_b1 += grad_z.sum(axis=(0, 1))
        grad_w1 += grad_z.reshape(-1, grad_z.shape[-1]).T @ f.reshape(-1, f.shape[-1])
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


def _box_sum(hood: np.ndarray, win: Window, weights: np.ndarray) -> np.ndarray:
    """sum_a k_a padded(s + a) over the cells s of ``win``, from ``hood``, the
    whole-grid neighbourhood of the padded map (grid.neighbourhood), and the
    action weights k as a contiguous vector of nine (grid.neighbourhood order)."""
    moves = hood[:, :, win[0], win[1]]
    return (weights @ moves.reshape(N_ACTIONS, -1)).reshape(moves.shape[2:])


@dataclass(frozen=True)
class Policy:
    """pi_t(a | s) = k_a u_t(s + a) / n_t(s) on the grid ``spec``, for steps
    t < horizon, on windows[t] = ``anchor ± t``. ``weights`` is k, (3, 3) with
    entry (dr+1, dc+1) for the move (dr, dc); ``succ[t]`` is u_t on
    windows[t+1] (a move off the grid reads 0) and ``norm[t]`` is n_t(s) =
    sum_a k_a u_t(s + a) on windows[t], read as 1 where it is 0: every move
    from such a cell has weight 0, so it gets probability 0 and passes on no
    mass. The builder (soft_value_iteration or Policy.on_grid) gives each map."""

    spec: GridSpec
    weights: np.ndarray
    succ: list[np.ndarray]
    norm: list[np.ndarray]
    windows: tuple[Window, ...] = field(init=False)
    # set by on_grid, whose succ maps are views of one padded on-grid indicator
    _on_grid: bool = field(init=False, default=False, repr=False)

    def __post_init__(self):
        if not self.succ or len(self.norm) != self.horizon:
            raise ValueError(f"a policy needs at least one step and one normaliser per step, "
                             f"got {self.horizon} and {len(self.norm)}")
        windows = reach_windows(self.spec, self.horizon)
        object.__setattr__(self, "windows", windows)
        shapes = [(rows.stop - rows.start, cols.stop - cols.start) for rows, cols in windows]
        for name, maps, wanted in (("successor", self.succ, shapes[1:]),
                                   ("normaliser", self.norm, shapes)):
            for t, m in enumerate(maps):
                if np.shape(m) != wanted[t]:
                    raise ValueError(f"{name} map {t} has shape {np.shape(m)}, "
                                     f"its window needs {wanted[t]}")

    @classmethod
    def on_grid(cls, spec: GridSpec, horizon: int, weights: np.ndarray) -> "Policy":
        """The policy with action weights k (copied) and successor weight 1 on the
        grid: u_t is the on-grid indicator and n_t(s) = sum_a k_a [s + a on the
        grid] for every t, one padded map and one box sum as read-only views."""
        weights = np.array(weights, dtype=np.float64)
        padded = padded_map(spec, 0.0)
        padded[1:-1, 1:-1] = 1.0
        grid = (slice(0, spec.rows), slice(0, spec.cols))
        norm = _box_sum(neighbourhood(padded, spec), grid, weights.ravel())
        norm[norm == 0.0] = 1.0
        for array in (weights, padded, norm):
            array.flags.writeable = False
        windows = reach_windows(spec, horizon)
        policy = cls(spec, weights, [padded[1:-1, 1:-1][win] for win in windows[1:]],
                     [norm[win] for win in windows[:-1]])
        object.__setattr__(policy, "_on_grid", True)
        return policy

    @property
    def horizon(self) -> int:
        return len(self.succ)

    def _padded(self, t: int) -> np.ndarray:
        """succ[t] in a zero-bordered padded map. The on-grid successors of
        windows[t] lie in windows[t+1], so an on-grid policy's probs read the
        same values from the indicator its succ views share, and no map is
        built."""
        if self._on_grid:
            return self.succ[t].base
        padded = padded_map(self.spec, 0.0)
        padded[1:-1, 1:-1][self.windows[t + 1]] = self.succ[t]
        return padded

    def probs(self, t: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """pi_t(. | s) at the grid cells s = (rows, cols) of windows[t], shape
        rows.shape + (9,); a cell with n_t = 0 gets 0s. Raises ValueError for
        a cell off windows[t]."""
        norm, (win_rows, win_cols) = self.norm[t], self.windows[t]
        # raises off the window on either side; a (row, col) index would wrap below it
        at = np.ravel_multi_index((rows - win_rows.start, cols - win_cols.start), norm.shape)
        moves = successors(self._padded(t), self.spec, rows, cols).reshape(N_ACTIONS, -1)
        moves *= self.weights.reshape(N_ACTIONS, 1)
        moves /= norm.flat[at].reshape(1, -1)
        return moves.T.reshape(np.shape(rows) + (N_ACTIONS,))

    def __call__(self, t: int) -> np.ndarray:
        """The read-only (h, w, 9) table of pi_t on windows[t], built on each call."""
        table = self.probs(t, *np.mgrid[self.windows[t]])
        table.flags.writeable = False
        return table


@functools.lru_cache(maxsize=64)
def reach_windows(spec: GridSpec, horizon: int) -> tuple[Window, ...]:
    """Step t's window is ``anchor ± t``, for t = 0..horizon: where the target
    can be at step t. Step t's successors lie in window t+1 or off the grid.
    Memoised per (spec, horizon); the tuple and its slices are immutable."""
    return tuple(window(spec, t) for t in range(horizon + 1))


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
    interior, hood, weights = padded[1:-1, 1:-1], neighbourhood(padded, spec), ones.ravel()
    succ, norm = [None] * horizon, [None] * horizon
    beta, log_partition, gain = 1.0, 0.0, math.log(horizon)
    for t in range(horizon - 1, -1, -1):
        r = reward[windows[t + 1]]
        top = r.max()
        u = r - top
        np.exp(u, out=u)
        u *= beta
        interior[windows[t + 1]] = u
        n = _box_sum(hood, windows[t], weights)
        scale = n.max()
        gain += math.log(N_ACTIONS / scale) if scale >= TINY else math.inf
        if not gain <= LOG_ROUNDING:
            raise IrlDivergenceError(f"the plan underflows at step {t}: {UNDERFLOW}")
        log_partition += float(top) + math.log(scale)
        beta = n / scale
        n[n == 0.0] = 1.0  # the policy reads a zero normaliser as 1
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
    interior, hood = padded[1:-1, 1:-1], neighbourhood(padded, spec)
    # sum_a k_a q(s' - a) = sum_b k_{-b} q(s' + b); ravel copies the reversed
    # view, where reshape would give a vector of negative stride and other bits
    inflow = policy.weights[::-1, ::-1].ravel()
    d = np.ones((1, 1))
    for t in range(horizon):
        win, reach = policy.windows[t], policy.windows[t + 1]
        np.divide(d, policy.norm[t], out=interior[win])
        d = policy.succ[t] * _box_sum(hood, reach, inflow)
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
    Steps faster than one cell are made reachable by grid.connect_cells; the
    result is truncated to horizon+1 states or padded with terminal STAYs.
    Both builders start from the origin, the target's position, which
    quantises to the anchor cell.
    """
    pts = np.asarray(future_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected >= 1 future points, got shape {pts.shape}")
    n = pts.shape[0]
    picks = np.ceil(np.arange(1, horizon + 1) * n / horizon).astype(int) - 1
    per_step, _ = quantize_trajectory(np.vstack([(0.0, 0.0), pts[picks]]), spec)
    # supervision truncates at the grid boundary
    on_grid = itertools.takewhile(lambda cell: cell is not None, per_step)
    return _demonstration(connect_cells(on_grid), horizon)


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
    (descend it to raise likelihood). Returns (nll, grad_R, policy), the
    soft-optimal Policy of ``reward`` that E[mu] came from.
    """
    log_partition, policy = soft_value_iteration(reward, spec, horizon)
    grad = expected_visitation(policy, summed=True)
    grad -= expert
    # <R, mu_hat> over the cells mu_hat visits: the same products in the same
    # order on any grid that holds them, so a box and its grid agree bitwise
    seen = np.flatnonzero(expert)
    return log_partition - float(reward.flat[seen] @ expert.flat[seen]), grad, policy


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainDiagnostics:
    """nll_history holds the NLL at the parameters of each Adam step; nll_final
    and final_grad_inf, max |E[mu] - mu_hat|, belong to the returned
    parameters, whose reward and plan train_irl returns with them."""

    nll_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    nll_final: float = float("nan")
    final_grad_inf: float = float("nan")


def train_irl(features: np.ndarray, expert: np.ndarray, spec: GridSpec, config: RunConfig):
    """Fit the reward map by Adam on the MaxEnt NLL until |dNLL| < tol.

    ``features`` is the (rows, cols, F) raster of ``spec`` and ``expert`` the
    expert's visit counts mu_hat on it (expert_visitation); the fit plans from
    the anchor of ``spec`` over ``config.horizon`` steps. Each Adam step, and
    the evaluation at the parameters it ends with, logs one debug line (it,
    nll, grad_inf). Returns (params, diagnostics, reward, policy): the reward
    map and its soft-optimal Policy are the ones that last evaluation planned.
    Raises IrlDivergenceError when the loss or parameters go non-finite or a
    plan underflows, reporting the offending evaluation.
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

    # evaluation it precedes Adam step it; the one after the last step (step
    # max_iters, or the step that converged) is final and takes no step
    for it in range(1, config.max_iters + 2):
        params = params.with_vector(vec)
        reward = reward_forward(features, params)
        try:
            nll, grad_r, policy = irl_loss_and_grad(reward, expert, spec, horizon)
        except IrlDivergenceError as exc:
            raise IrlDivergenceError(str(exc), it) from None
        if not math.isfinite(nll):
            raise IrlDivergenceError("nll is non-finite", it)
        grad_inf = float(np.abs(grad_r).max())
        if log:
            log.debug("it=%d nll=%r grad_inf=%r", it, nll, grad_inf)
        if diag.converged or it > config.max_iters:
            break
        # a step's plan is dropped before the next evaluation builds its own:
        # holding both adds ~0.5 MB to the peak RSS of a default-config run
        del policy
        grad_vec = reward_backward(features, params, grad_r).as_vector()
        diag.nll_history.append(nll)
        diag.iterations = it

        m = beta1 * m + (1 - beta1) * grad_vec
        v = beta2 * v + (1 - beta2) * grad_vec ** 2
        m_hat = m / (1 - beta1 ** it)
        v_hat = v / (1 - beta2 ** it)
        vec = vec - config.lr * m_hat / (np.sqrt(v_hat) + eps)

        if not np.all(np.isfinite(vec)):
            raise IrlDivergenceError("parameters are non-finite", it)
        diag.converged = math.isinf(config.tol) or (prev_nll is not None
                                                    and abs(nll - prev_nll) < config.tol)
        prev_nll = nll

    diag.nll_final, diag.final_grad_inf = nll, grad_inf
    return params, diag, reward, policy
