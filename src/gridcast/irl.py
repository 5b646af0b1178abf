"""Grid-based maximum-entropy IRL.

A per-cell reward map is trained so that the soft-optimal policy's expected
state visitations match those of quantized expert demonstrations. Planning is
finite-horizon soft value iteration. At step t each cell s exponentiates the
gains R(s') + V_{t+1}(s') of its actions' successors s', shifted by their
maximum m: e_t = exp(gain - m), total_t = sum_a e_t, V_t = m + log(total_t),
and the time-indexed policy is pi_t = e_t / total_t, the local action
probability Z_a / Z_s of Ziebart et al. (2008). Every e_t is at most 1 and
the largest is exp(0) = 1, so 1 <= total_t <= 9: pi_t never overflows, never
divides by zero and never reads a value map. The induced path distribution
is P(tau | s0) proportional to exp(sum of rewards over entered states), which
the enumeration oracle in :mod:`gridcast.oracle` verifies exactly on small
grids.

train_irl fits on whatever grid it is given, from the expert's visit counts
mu_hat on that grid. Step t of value iteration and of the forward pass runs
on the window ``anchor ± t`` only (grid.window). This is bit for bit the
whole-grid plan: a cell within t moves of the anchor reads only successors
within t+1 moves, with the same operands in the same order, and the flows
from cells off the window are exactly 0, so skipping them adds nothing. One
trap guards that claim: the t = 0 window is one cell, and numpy sums a
(9, 1, 1) stack pairwise instead of action after action, so that step
spells the order out. No value map is kept: one padded gains map carries
R + V_{t+1} from step to step, and the plan returns log Z = V_0(anchor).

Both passes gather through read-only strided views (grid.neighbourhood,
grid.inflows), one copy into a contiguous (9, window) stack per step. Value
iteration copies each cell's nine successor gains. The forward pass writes
the flows D_t pi_t of windows[t] into a zero-bordered buffer and copies each
cell's nine inflows, then sums them over the action axis. That sum adds a
cell's inflows in ACTIONS order, one after another, the order in which
``reference_plan`` in tests/test_irl.py adds nine sliced flow maps into a
zeroed map, and the flows it reads from sources off windows[t] or off the
grid are exactly 0, which adds nothing (x + 0.0 == x). The destination
window of every step holds at least 2x2 cells, so the one-cell pairwise trap
above never applies there. log Z, the policy and the visitations therefore
equal those of ``reference_plan`` bit for bit.
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
    inflows,
    neighbourhood,
    padded_map,
    quantize_trajectory,
    window,
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


@dataclass(frozen=True)
class Policy:
    """A time-indexed policy on the grid ``spec`` over horizon len(tables):
    policy(t) is tables[t], pi_t(a | s) on windows[t] = ``anchor ± t``, shape
    (h, w, 9); off-grid actions have prob 0. A planned table is the transposed
    view of an action-major (9, h, w) stack. Raises ValueError for no tables
    or a table whose shape is not its window's."""

    spec: GridSpec
    tables: list[np.ndarray]
    windows: list[Window] = field(init=False)

    def __post_init__(self):
        if not self.tables:
            raise ValueError("a policy needs a table for at least one step")
        windows = reach_windows(self.spec, len(self.tables))
        for t, (table, (rows, cols)) in enumerate(zip(self.tables, windows)):
            shape = (rows.stop - rows.start, cols.stop - cols.start, N_ACTIONS)
            if table.shape != shape:
                raise ValueError(f"policy table {t} has shape {table.shape}, "
                                 f"its window needs {shape}")
        object.__setattr__(self, "windows", windows)

    def __call__(self, t: int) -> np.ndarray:
        return self.tables[t]


def reach_windows(spec: GridSpec, horizon: int) -> list[Window]:
    """Step t's window is ``anchor ± t``, for t = 0..horizon: where the target
    can be at step t. Step t's successors lie in window t+1 or off the grid."""
    return [window(spec, t) for t in range(horizon + 1)]


def soft_value_iteration(reward: np.ndarray, spec: GridSpec, horizon: int):
    """Backward soft Bellman recursion with terminal V_horizon = 0, step t on
    the window ``anchor ± t``: V_t(s) = logsumexp over in-grid successors s'
    of R(s') + V_{t+1}(s'). Returns (log_partition, policy): log Z =
    V_0(anchor) and the soft-optimal Policy, whose table at step t is the
    normalised exponentials pi_t = e_t / total_t of V_t's logsumexp
    (off-grid actions get exp(-inf) = 0). The tables are read-only, so
    policy(t) returns the same bits however often it is called.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    reward = np.asarray(reward, dtype=np.float64)
    if reward.shape != (spec.rows, spec.cols):
        raise ValueError(f"reward shape {reward.shape} != grid {(spec.rows, spec.cols)}")
    windows = reach_windows(spec, horizon)
    # gains R(s') + V_{t+1}(s'), -inf off the grid: step t reads them on
    # windows[t+1], which holds every in-grid successor of windows[t], and
    # then writes R + V_t on windows[t] for step t - 1
    padded = padded_map(spec, -np.inf)
    gains = padded[1:-1, 1:-1]
    np.add(reward[windows[horizon]], 0.0, out=gains[windows[horizon]])  # V_horizon = 0
    stacks = [np.empty((N_ACTIONS, rows.stop - rows.start, cols.stop - cols.start))
              for rows, cols in windows[:-1]]
    for t in range(horizon - 1, -1, -1):
        win = windows[t]
        e = stacks[t]
        np.copyto(e.reshape(3, 3, *e.shape[1:]), neighbourhood(padded, spec, win))
        # logsumexp over actions; STAY is always valid so the max is finite
        m = e.max(axis=0)
        e -= m
        np.exp(e, out=e)
        # numpy adds a stack's actions one after another, except in a one-cell
        # stack (the t = 0 window), which it sums pairwise and so rounds
        # differently; there the builtin sum keeps the order
        total = sum(e) if e[0].size == 1 else e.sum(axis=0)
        e /= total
        e.flags.writeable = False
        v = np.add(m, np.log(total, out=total), out=m)  # V_t on win
        np.add(reward[win], v, out=gains[win])
    # the t = 0 window is the anchor alone
    return float(v[0, 0]), Policy(spec, [stack.transpose(1, 2, 0) for stack in stacks])


def expected_visitation(policy: Policy) -> np.ndarray:
    """Per-step state distributions D on the policy's grid, shape (horizon+1,
    rows, cols), from D_0 = delta(anchor), D_{t+1} = sum_s,a D_t pi_t routed.

    Step t reads D_t and policy(t) on the policy's windows[t] only and writes
    D_{t+1} on windows[t+1]. That is exact, since windows[t] holds every cell
    the anchor reaches in t moves: D_t is 0 elsewhere, so the flows it skips
    are exactly 0. Each step gathers: it writes the flows D_t pi_t, then sums
    the nine inflows of every cell of windows[t+1] (grid.inflows).
    """
    spec, horizon = policy.spec, len(policy.tables)
    per_step = np.zeros((horizon + 1, spec.rows, spec.cols))
    per_step[0, spec.anchor.row, spec.anchor.col] = 1.0
    # flows[a] at s is D_t(s) pi_t(a | s) on the grid (the interior) and 0 on
    # the border; step t writes windows[t], which holds windows[t-1]
    flows = np.zeros((N_ACTIONS, spec.rows + 2, spec.cols + 2))
    interior = flows[:, 1:-1, 1:-1]
    for t in range(horizon):
        win, reach = policy.windows[t], policy.windows[t + 1]
        np.multiply(per_step[t][win], policy(t).transpose(2, 0, 1),
                    out=interior[:, win[0], win[1]])
        landed = per_step[t + 1][reach]
        received = np.empty((N_ACTIONS,) + landed.shape)
        np.copyto(received.reshape(3, 3, *landed.shape), inflows(flows, spec, reach))
        received.sum(axis=0, out=landed)
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

    nll = V_0(anchor) - <R, mu_hat> for the expert's visit counts mu_hat;
    grad_R = E[mu] - mu_hat, the expected minus empirical visitation counts
    (descend it to raise likelihood).
    """
    log_partition, policy = soft_value_iteration(reward, spec, horizon)
    visits = expected_visitation(policy)
    nll = log_partition - float(np.vdot(reward, expert))
    return nll, visits[1:].sum(axis=0) - expert


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
        nll, grad_r = irl_loss_and_grad(reward, expert, spec, horizon)
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
