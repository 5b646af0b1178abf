import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gridcast import irl, pipeline
from gridcast.scene import SCENE_KINDS, generate_scene, normalize_to_target
from gridcast.config import RunConfig
from gridcast.grid import ACTIONS, N_ACTIONS, STAY, CellIndex, GridSpec, neighbourhood, reachable_box
from gridcast.irl import (
    Demonstration,
    RewardMapParams,
    build_demonstration,
    expected_visitation,
    expert_visitation,
    irl_loss_and_grad,
    reward_backward,
    reward_forward,
    soft_value_iteration,
    train_irl,
)
from gridcast.oracle import enumerate_paths
from test_grid import on_grid_moves


def small_spec(rows=5, cols=5, anchor=(2, 2)):
    return GridSpec(rows=rows, cols=cols, resolution=1.0, anchor=CellIndex(*anchor))


def random_features(shape, seed=0):
    rs = np.random.RandomState(seed)
    return rs.uniform(-1.0, 1.0, shape)


# ---------------------------------------------------------------------------
# reward map
# ---------------------------------------------------------------------------

def test_reward_forward_zero_linear_is_uniform():
    params = RewardMapParams.linear(4)
    field = reward_forward(random_features((6, 6, 4)), params)
    np.testing.assert_allclose(field, 0.0, atol=0.0)


def test_reward_forward_onroad_indicator():
    features = np.zeros((4, 4, 2))
    features[1:3, 1:3, 0] = 1.0  # binary on-road channel
    params = RewardMapParams(mode="linear", w=np.array([1.0, 0.0]))
    field = reward_forward(features, params)
    assert np.all(field[1:3, 1:3] == 1.0)
    off_road = np.ones((4, 4), dtype=bool)
    off_road[1:3, 1:3] = False
    assert np.all(field[off_road] == 0.0)


def test_reward_forward_two_layer_is_the_raw_network_output():
    feats = random_features((7, 7, 5), seed=2)
    params = RewardMapParams.two_layer(5, hidden=8, seed=3)
    field = reward_forward(feats, params)
    assert np.all(np.isfinite(field))
    raw = feats @ params.w1.T + params.b1
    raw = np.maximum(raw, 0.0) @ params.w2
    assert np.array_equal(field, raw)


def whole_grid_network(feats, params, g):
    """The two-layer map and its gradient w.r.t. the parameters, every cell at once."""
    z = feats @ params.w1.T + params.b1
    act = np.maximum(z, 0.0)
    grad_z = g[..., None] * params.w2 * (z > 0.0)
    grads = (np.tensordot(grad_z, feats, axes=([0, 1], [0, 1])), grad_z.sum(axis=(0, 1)),
             np.tensordot(g, act, axes=([0, 1], [0, 1])))
    return act @ params.w2, np.concatenate([grads[0].ravel(), grads[1], grads[2]])


@pytest.mark.parametrize("rows, cols", [(65, 65), (128, 128), (27, 33)])
def test_reward_network_in_row_blocks_is_the_whole_grid_network(rows, cols):
    # the default box (5 blocks, the last of 9 rows), the full grid and the
    # acceptance box (one block)
    feats = random_features((rows, cols, 6), seed=rows)
    g = random_features((rows, cols), seed=cols)
    params = RewardMapParams.two_layer(6, hidden=16, seed=4)
    reward, grad = whole_grid_network(feats, params, g)
    assert np.array_equal(reward_forward(feats, params), reward)
    blocked = reward_backward(feats, params, g).as_vector()
    if rows * cols * 16 <= irl.HIDDEN_BLOCK_VALUES:
        assert np.array_equal(blocked, grad)
    np.testing.assert_allclose(blocked, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())


@pytest.mark.parametrize("direction, bound", [("forward", 500_000), ("backward", 750_000)])
def test_reward_network_keeps_no_hidden_layer_of_the_grid(direction, bound):
    # a (65, 65, 16) hidden layer takes 540,800 bytes; the whole-grid network
    # peaked at 1.15 MB forward and 1.76 MB backward on the default box
    feats = random_features((65, 65, 6), seed=3)
    params = RewardMapParams.two_layer(6, hidden=16, seed=4)
    g = random_features((65, 65), seed=5)
    tracemalloc.start()
    try:
        if direction == "forward":
            reward_forward(feats, params)
        else:
            reward_backward(feats, params, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_reward_backward_linear_closed_form():
    feats = random_features((5, 5, 3), seed=4)
    g = random_features((5, 5), seed=5)
    grads = reward_backward(feats, RewardMapParams.linear(3), g)
    expected = np.einsum("rc,rcf->f", g, feats)
    np.testing.assert_allclose(grads.w, expected, rtol=1e-12)


def test_reward_backward_zero_grad():
    feats = random_features((5, 5, 3), seed=6)
    grads = reward_backward(feats, RewardMapParams.linear(3), np.zeros((5, 5)))
    np.testing.assert_array_equal(grads.w, 0.0)


@pytest.mark.parametrize("mode", ["linear", "two_layer"])
def test_reward_backward_matches_finite_differences(mode):
    feats = random_features((5, 5, 4), seed=7)
    g = random_features((5, 5), seed=8)
    if mode == "linear":
        params = RewardMapParams(mode="linear", w=random_features((4,), 9))
    else:
        params = RewardMapParams.two_layer(4, hidden=6, seed=10)
    analytic = reward_backward(feats, params, g).as_vector()
    vec = params.as_vector()
    eps = 1e-5

    def objective(v):
        p = params.with_vector(v)
        raw = (feats @ p.w if mode == "linear" else
               np.maximum(feats @ p.w1.T + p.b1, 0.0) @ p.w2)
        return float((g * raw).sum())

    rs = np.random.RandomState(11)
    for i in rs.choice(vec.size, size=min(10, vec.size), replace=False):
        up, dn = vec.copy(), vec.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (objective(up) - objective(dn)) / (2 * eps)
        assert abs(analytic[i] - fd) <= 1e-5 * max(abs(fd), abs(analytic[i]), 1e-8)


@pytest.mark.parametrize("mode", ["linear", "two_layer"])
def test_every_reward_parameter_moves_the_reward(mode):
    # fixed-length paths make a constant reward unidentifiable, so a parameter
    # that only adds one (an output bias) could not be fitted: each move must
    # vary over the cells
    feats = random_features((6, 6, 4), seed=14)
    if mode == "linear":
        params = RewardMapParams(mode="linear", w=random_features((4,), 15))
    else:
        params = RewardMapParams.two_layer(4, hidden=6, seed=16)
        active = (feats @ params.w1.T + params.b1 > 0.0).sum(axis=(0, 1))
        # a unit off everywhere is dead on these features, and one on
        # everywhere makes its hidden bias a constant
        assert np.all((active > 0) & (active < 36))
    base = reward_forward(feats, params)
    vec = params.as_vector()
    for i in range(vec.size):
        moved = vec.copy()
        moved[i] += 1e-3
        change = np.ptp(reward_forward(feats, params.with_vector(moved)) - base)
        assert change > 1e-8, f"coordinate {i} of {vec.size} only shifts the reward"


# ---------------------------------------------------------------------------
# soft value iteration
# ---------------------------------------------------------------------------

def test_uniform_reward_interior_policy_and_value():
    spec = small_spec(rows=13, cols=13, anchor=(6, 6))
    horizon = 3
    policy = soft_value_iteration(np.zeros((13, 13)), spec, horizon)[1]
    for t in range(horizon):
        rows, cols = policy.windows[t]
        np.testing.assert_allclose(policy(t)[6 - rows.start, 6 - cols.start],
                                   np.full(9, 1.0 / 9.0), atol=1e-12)
    # V_t(centre) is the log Z of the horizon - t steps left from the centre
    for steps in range(1, horizon + 1):
        log_z = soft_value_iteration(np.zeros((13, 13)), spec, steps)[0]
        assert log_z == pytest.approx(steps * math.log(9.0), abs=1e-9)


def test_single_step_prefers_high_reward_neighbor():
    spec = small_spec()
    reward = np.zeros((5, 5))
    reward[3, 2] = 5.0
    reward -= reward.max()
    policy = soft_value_iteration(reward, spec, horizon=1)[1]
    best_action = policy(0)[0, 0].argmax()  # the t = 0 window is the anchor
    assert ACTIONS[best_action] == (1, 0)


def test_policy_matches_enumeration():
    rs = np.random.RandomState(0)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    start = CellIndex(2, 2)
    horizon = 4
    policy = soft_value_iteration(reward, spec, horizon)[1]
    dist = enumerate_paths(reward, spec, start, horizon)
    # product of policy probabilities along each enumerated path
    probs = np.ones(dist.histories.shape[0])
    for t in range(horizon):
        r = dist.histories[:, t, 0].astype(int)
        c = dist.histories[:, t, 1].astype(int)
        dr = dist.histories[:, t + 1, 0].astype(int) - r
        dc = dist.histories[:, t + 1, 1].astype(int) - c
        actions = (dr + 1) * 3 + (dc + 1)
        rows, cols = policy.windows[t]
        probs *= policy(t)[r - rows.start, c - cols.start, actions]
    np.testing.assert_allclose(probs, dist.probs, atol=1e-9)


def test_visitation_matches_enumeration():
    rs = np.random.RandomState(1)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    start = CellIndex(2, 2)
    horizon = 4
    policy = soft_value_iteration(reward, spec, horizon)[1]
    visit = expected_visitation(policy)
    np.testing.assert_allclose(visit, enumerate_paths(reward, spec, start, horizon).marginals(), atol=1e-9)


def test_policy_shift_invariance():
    rs = np.random.RandomState(2)
    spec = small_spec()
    reward = rs.uniform(-2.0, 0.0, (5, 5))
    p1 = soft_value_iteration(reward, spec, 3)[1]
    p2 = soft_value_iteration(reward + 17.3, spec, 3)[1]
    for t in range(3):
        np.testing.assert_allclose(p1(t), p2(t), atol=1e-12)
    # every path enters exactly `horizon` cells, so R + c raises V_0 by
    # horizon * c and <R + c, mu_hat> by c * sum(mu_hat) = horizon * c
    expert = expert_visitation([demo_from_rows([(2, 2), (2, 3), (3, 3), (3, 3)])], spec, 3)
    nll, grad, _ = irl_loss_and_grad(reward, expert, spec, 3)
    for c in (-50.0, 17.3, 1e3):
        nll_c, grad_c, _ = irl_loss_and_grad(reward + c, expert, spec, 3)
        assert abs(nll_c - nll) <= 1e-9
        np.testing.assert_allclose(grad_c, grad, rtol=0.0, atol=1e-9)


def test_policy_simplex_and_mass_conservation():
    rs = np.random.RandomState(3)
    for trial in range(20):
        rows, cols = rs.randint(3, 8, size=2)
        spec = GridSpec(rows=rows, cols=cols, resolution=1.0,
                        anchor=CellIndex(rs.randint(rows), rs.randint(cols)))
        horizon = rs.randint(1, 6)
        reward = rs.uniform(-3.0, 0.0, (rows, cols))
        policy = soft_value_iteration(reward, spec, horizon)[1]
        valid = on_grid_moves(spec)
        for t in range(horizon):
            np.testing.assert_allclose(policy(t).sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(policy(t)[~valid[policy.windows[t]]] == 0.0)
        visit = expected_visitation(policy)
        np.testing.assert_allclose(visit.sum(axis=(1, 2)), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# visitation helpers
# ---------------------------------------------------------------------------

def one_hot_policy(spec, action, horizon):
    """Every step takes ``action``, the only move with a nonzero weight."""
    weights = np.zeros(9)
    weights[action] = 1.0
    return irl.Policy.on_grid(spec, horizon, weights.reshape(3, 3))


def box_sums(spec, weights, succ):
    """sum_a k_a u_t(s + a) on each window anchor ± t, zeros as they are: the
    box sum of the successor weights u_t (on anchor ± (t+1)) over nine stacked
    slices, one padded map per step."""
    windows, out = irl.reach_windows(spec, len(succ)), []
    for t, u in enumerate(succ):
        padded = np.zeros((spec.rows + 2, spec.cols + 2))
        padded[1:-1, 1:-1][windows[t + 1]] = u
        views = np.stack(_reference_views(padded, windows[t]))
        out.append((weights.ravel() @ views.reshape(9, -1)).reshape(views.shape[1:]))
    return out


def assert_zero_normalisers_read_as_one(policy):
    """norm[t] is the box sum with 0 read as 1, and a cell whose box sum
    is 0 has all-0 moves and passes on no mass: exact 0s, never NaN. Returns
    the visitations."""
    visits = expected_visitation(policy)
    assert np.all(np.isfinite(visits))
    zeros = 0
    for t, raw in enumerate(box_sums(policy.spec, policy.weights, policy.succ)):
        assert np.array_equal(policy.norm[t], np.where(raw == 0.0, 1.0, raw))
        rows, cols = np.mgrid[policy.windows[t]]
        table = policy.probs(t, rows, cols)
        assert np.all(np.isfinite(table))
        assert np.all(table[raw == 0.0] == 0.0)
        zeros += int(np.sum(raw == 0.0))
    assert zeros > 0  # the case covers the rule
    return visits


def test_a_planned_cell_whose_moves_all_underflow_has_normaliser_one():
    # on the 7x7 grid with H = 2, every successor of cell (4, 4) lies 1000
    # nats below the best one, so u_1 underflows to 0 there: n_1(4, 4) = 0
    spec = small_spec(7, 7, (3, 3))
    reward = np.zeros((7, 7))
    reward[3:6, 3:6] = -1000.0
    policy = soft_value_iteration(reward, spec, 2)[1]
    raw = box_sums(spec, policy.weights, policy.succ)[1]
    assert raw[4 - 2, 4 - 2] == 0.0
    visits = assert_zero_normalisers_read_as_one(policy)
    assert np.all(visits[1][policy.windows[1]][raw == 0.0] == 0.0)  # no mass reaches it
    np.testing.assert_allclose(visits.sum(axis=(1, 2)), 1.0, atol=1e-12)


def test_a_hand_built_policy_stepping_off_the_grid_drops_its_mass_exactly():
    # every step moves (+1, +1): at t = 2 the target sits on the corner (4, 4),
    # whose one move leaves the grid, so n_2 = 0 there and the mass is lost
    spec = small_spec(5, 5, (2, 2))
    policy = one_hot_policy(spec, ACTIONS.index((1, 1)), 3)
    visits = assert_zero_normalisers_read_as_one(policy)
    assert visits[2, 4, 4] == 1.0
    assert np.array_equal(visits[3], np.zeros((5, 5)))


def neighbourhood_probs(policy, t, rows, cols):
    """Policy.probs as first written: the 4-D advanced index of the strided
    neighbourhood view."""
    moves = neighbourhood(policy._padded(t), policy.spec)[:, :, rows, cols].reshape(9, -1)
    moves *= policy.weights.reshape(9, 1)
    win_rows, win_cols = policy.windows[t]
    moves /= policy.norm[t][rows - win_rows.start, cols - win_cols.start].reshape(1, -1)
    return moves.T.reshape(np.shape(rows) + (9,))


@pytest.mark.parametrize("planned", [True, False])
def test_policy_probs_gather_is_the_neighbourhood_index_bitwise(planned):
    # on 9x11 with the anchor near a corner, windows reach three sides of the
    # grid by t = 5, so border cells and their off-grid moves (which read 0)
    # are covered; the planner has k = 1, the straight policy k != 1
    spec = small_spec(9, 11, (2, 8))
    horizon = 7
    if planned:
        reward = np.random.RandomState(3).uniform(-2.0, 0.0, (spec.rows, spec.cols))
        policy = soft_value_iteration(reward, spec, horizon)[1]
        assert np.all(policy.weights == 1.0)
    else:
        policy = pipeline.straight_rollout_policy(spec, horizon)
        assert len(np.unique(policy.weights)) > 1
    rs = np.random.RandomState(5)
    off_grid = ~on_grid_moves(spec)
    borders = 0
    for t in range(horizon):
        rows, cols = np.mgrid[policy.windows[t]]
        table = policy.probs(t, rows, cols)
        assert table.tobytes() == neighbourhood_probs(policy, t, rows, cols).tobytes()
        assert np.all(table[off_grid[policy.windows[t]]] == 0.0)
        borders += int(off_grid[policy.windows[t]].any(axis=-1).sum())
        picks = rs.randint(0, rows.size, 40)  # sampled cells, repeats included
        r, c = rows.ravel()[picks], cols.ravel()[picks]
        assert policy.probs(t, r, c).tobytes() == neighbourhood_probs(policy, t, r, c).tobytes()
    assert borders > 0


def test_on_grid_probs_read_the_policys_own_padded_map(monkeypatch):
    # the straight and a one-hot policy on boxes whose windows meet the grid
    # edge: every border cell of every window gets the bits of a policy that
    # pads succ[t] on each call, and no call builds a padded map
    cases = [((9, 11), (2, 8), 7), ((15, 17), (3, 8), 8), ((27, 33), (13, 3), 16)]
    padded = []
    original = irl.padded_map
    monkeypatch.setattr(irl, "padded_map", lambda *args: padded.append(1) or original(*args))
    for shape, anchor, horizon in cases:
        box = reachable_box(small_spec(*shape, anchor), horizon)[0]
        for policy in (pipeline.straight_rollout_policy(box, horizon),
                       one_hot_policy(box, ACTIONS.index((1, 1)), horizon)):
            padding = irl.Policy(box, policy.weights, policy.succ, policy.norm)
            off_grid = ~on_grid_moves(box)
            for t in range(horizon):
                rows, cols = np.mgrid[policy.windows[t]]
                on_edge = off_grid[policy.windows[t]].any(axis=-1)
                on_edge[[0, -1], :] = on_edge[:, [0, -1]] = True  # the window's own border
                r, c = rows[on_edge], cols[on_edge]
                before = len(padded)
                got = policy.probs(t, r, c)
                table = policy(t)
                assert len(padded) == before
                assert got.tobytes() == padding.probs(t, r, c).tobytes()
                assert table.tobytes() == padding(t).tobytes()
    assert padded  # the padding policy built one per call


def test_policy_rejects_a_table_off_its_window():
    # a whole-grid map where a window's belongs would read the wrong cells
    spec = small_spec(rows=9, cols=9, anchor=(4, 4))
    on_grid, weights = np.ones((9, 9)), np.ones((3, 3))
    norm = [np.ones((1, 1)), np.ones((3, 3))]
    with pytest.raises(ValueError, match=r"successor map 1 has shape \(9, 9\), "
                                         r"its window needs \(5, 5\)"):
        irl.Policy(spec, weights, [on_grid[3:6, 3:6], on_grid], norm)
    with pytest.raises(ValueError, match=r"normaliser map 1 has shape \(9, 9\), "
                                         r"its window needs \(3, 3\)"):
        irl.Policy(spec, weights, [on_grid[3:6, 3:6], on_grid[2:7, 2:7]], [norm[0], on_grid])


def test_policy_rejects_no_tables():
    with pytest.raises(ValueError, match="at least one step"):
        irl.Policy(small_spec(), np.ones((3, 3)), [], [])


def test_policy_rejects_a_normaliser_count_off_its_steps():
    spec, succ = small_spec(rows=9, cols=9, anchor=(4, 4)), [np.ones((3, 3))]
    for norm in ([], [np.ones((1, 1))] * 2):
        with pytest.raises(ValueError, match="one normaliser per step"):
            irl.Policy(spec, np.ones((3, 3)), succ, norm)


@pytest.mark.parametrize("planned", [True, False])
def test_policy_probs_rejects_a_cell_off_its_window_on_either_side(planned):
    # on 21x21 with the anchor at (10, 10), windows[2] is rows and cols 8-12:
    # a negative offset must not wrap around to the window's far edge
    spec, t = small_spec(21, 21, (10, 10)), 2
    if planned:
        policy = soft_value_iteration(np.zeros((21, 21)), spec, 4)[1]
    else:
        policy = pipeline.straight_rollout_policy(spec, 4)
    np.testing.assert_allclose(policy.probs(t, np.array([8, 12]), np.array([10, 10])).sum(axis=1),
                               1.0, rtol=0.0, atol=1e-12)
    for row, col in ((7, 10), (13, 10), (10, 7), (10, 13)):
        with pytest.raises(ValueError):
            policy.probs(t, np.array([row]), np.array([col]))


@pytest.mark.parametrize("action", range(N_ACTIONS))
def test_the_table_of_a_one_hot_policy_stays_at_its_dead_ends(action):
    # a one-hot move off the grid from every border the move meets: the build
    # divides no 0 by 0 (RuntimeWarning is an error here), the cells with no
    # move STAY, and every other row is the normalised cumsum of probs
    spec = small_spec(rows=7, cols=8, anchor=(3, 3))
    policy = one_hot_policy(spec, action, 3)
    table, dead = policy._table
    rows, cols = np.divmod(np.arange(spec.rows * spec.cols), spec.cols)
    dr, dc = ACTIONS[action]
    off = ~((0 <= rows + dr) & (rows + dr < spec.rows) & (0 <= cols + dc) & (cols + dc < spec.cols))
    assert np.array_equal(dead, off)
    assert np.array_equal(table[dead], np.tile(np.arange(N_ACTIONS) >= STAY, (dead.sum(), 1)))
    full = irl.Policy.on_grid(spec, spec.rows + spec.cols, policy.weights)  # windows span the grid
    t = max(spec.rows, spec.cols)
    live = ~dead
    cum = full.probs(t, rows[live], cols[live]).cumsum(axis=1)
    cum /= cum[:, -1:]
    assert table[live].tobytes() == cum.tobytes()


def on_grid_normalisers(cases):
    """(policy, its per-window box sums, zeros as they are) for the straight
    and a one-hot on-grid policy on the reachable box of each (grid shape,
    anchor, horizon). The one-hot move (+1, +1) leaves the grid from a box's
    bottom row and right column, so a window that meets either has
    normalisers 0 there."""
    for shape, anchor, horizon in cases:
        box = reachable_box(small_spec(*shape, anchor), horizon)[0]
        for policy in (pipeline.straight_rollout_policy(box, horizon),
                       one_hot_policy(box, ACTIONS.index((1, 1)), horizon)):
            succ = [np.ones_like(u) for u in policy.succ]
            assert [u.tobytes() for u in policy.succ] == [u.tobytes() for u in succ]
            yield policy, box_sums(box, policy.weights, succ)


def test_on_grid_normalisers_are_the_per_window_box_sums_of_the_configs_bitwise():
    # the reachable boxes of the default 128x128/H=32 config (65x65), the
    # acceptance config (27x33/H=16) and the CLI and benchmark tests' configs
    # (21x25/H=12, 15x17/H=8): one box sum over the whole box gives the bits
    # the per-window box sums gave there
    cases = [((128, 128), (32, 64), 32), ((40, 40), (10, 20), 16), ((32, 32), (8, 16), 12),
             ((24, 24), (6, 12), 8)]
    for policy, raws in on_grid_normalisers(cases):
        for n, raw in zip(policy.norm, raws, strict=True):
            assert n.tobytes() == np.where(raw == 0.0, 1.0, raw).tobytes()


def test_on_grid_normalisers_match_the_per_window_box_sums_at_every_edge():
    # boxes whose windows meet the grid edge on one (top), two (top, right)
    # and three (top, bottom, left) sides. The BLAS product sums a vector's
    # last elements in another order than the rest, so the last cell of a
    # window can round differently from the same cell of the whole box: the
    # two agree to the rounding of a sum of nine nonnegative terms, and a zero
    # normaliser is read as exactly 1 in both
    cases = [((15, 17), (3, 8), 8), ((21, 25), (2, 22), 12), ((27, 33), (13, 3), 16)]
    zeros = 0
    for policy, raws in on_grid_normalisers(cases):
        for n, raw in zip(policy.norm, raws, strict=True):
            np.testing.assert_allclose(n, np.where(raw == 0.0, 1.0, raw),
                                       rtol=16 * np.finfo(np.float64).eps, atol=0.0)
            assert np.all(n[raw == 0.0] == 1.0)
            zeros += int(np.sum(raw == 0.0))
    assert zeros > 0


def test_deterministic_policy_unit_spikes():
    spec = small_spec(rows=8, cols=8, anchor=(1, 1))
    horizon = 4
    policy = one_hot_policy(spec, ACTIONS.index((1, 1)), horizon)
    visit = expected_visitation(policy)
    for t in range(horizon + 1):
        assert visit[t].max() == 1.0
        assert visit[t][1 + t, 1 + t] == 1.0


def test_uniform_policy_first_step():
    spec = small_spec(rows=7, cols=7, anchor=(3, 3))
    policy = soft_value_iteration(np.zeros((7, 7)), spec, 1)[1]
    visit = expected_visitation(policy)
    np.testing.assert_allclose(visit[1][2:5, 2:5], 1.0 / 9.0, atol=1e-12)
    assert visit[1].sum() == pytest.approx(1.0)


def demo_from_rows(cells):
    return Demonstration(cells=tuple(CellIndex(r, c) for r, c in cells))


def test_expert_visitation_straight_demo():
    spec = small_spec(rows=8, cols=8, anchor=(0, 0))
    horizon = 5
    demo = demo_from_rows([(i, 0) for i in range(6)])
    expert = expert_visitation([demo], spec, horizon)
    for i in range(1, 6):
        assert expert[i, 0] == 1.0
    assert expert.sum() == horizon


def test_expert_visitation_stay_demo():
    spec = small_spec()
    horizon = 5
    demo = demo_from_rows([(2, 2)] * 6)
    expert = expert_visitation([demo], spec, horizon)
    assert expert[2, 2] == horizon


def test_expert_visitation_diverging_demos():
    spec = small_spec(rows=8, cols=8, anchor=(0, 0))
    horizon = 4
    a = demo_from_rows([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    b = demo_from_rows([(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)])
    expert = expert_visitation([a, b], spec, horizon)
    assert expert[1, 0] == 1.0 and expert[2, 0] == 1.0
    assert expert[3, 0] == 0.5 and expert[3, 1] == 0.5


def test_expert_visitation_rejects_short_demo():
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2)])
    with pytest.raises(ValueError):
        expert_visitation([demo], spec, horizon=5)


def test_build_demonstration_slow_motion_repeats():
    # 5 future points over 8 planning steps: the slow cadence shows up as
    # repeated cells (STAY actions), and the full extent is still covered
    spec = small_spec(rows=30, cols=9, anchor=(2, 4))
    pts = np.column_stack([np.arange(1.0, 6.0), np.zeros(5)])
    demo = build_demonstration(pts, spec, horizon=8)
    assert len(demo) == 9
    assert demo.cells[0] == spec.anchor
    assert demo.cells[2] == demo.cells[3]  # repeat = STAY
    assert demo.cells[-1] == CellIndex(7, 4)


def test_build_demonstration_fast_motion_capped():
    # 25 points over 8 steps jump 3 cells per step; adjacency repair caps the
    # path at one cell per step, so coverage truncates at horizon cells
    spec = small_spec(rows=30, cols=9, anchor=(2, 4))
    long_pts = np.column_stack([np.arange(1.0, 26.0), np.zeros(25)])
    demo = build_demonstration(long_pts, spec, horizon=8)
    assert len(demo) == 9
    assert demo.cells[-1] == CellIndex(10, 4)
    for a, b in zip(demo.cells, demo.cells[1:]):
        assert abs(a.row - b.row) <= 1 and abs(a.col - b.col) <= 1


def test_build_demonstration_stationary_pads():
    spec = small_spec(rows=30, cols=9, anchor=(2, 4))
    demo = build_demonstration(np.zeros((10, 2)), spec, horizon=6)
    assert len(demo) == 7
    assert all(c == spec.anchor for c in demo.cells)


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

def test_nll_uniform_reward():
    spec = GridSpec(rows=15, cols=15, resolution=1.0, anchor=CellIndex(7, 7))
    horizon = 3
    demo = demo_from_rows([(7, 7), (8, 7), (9, 7), (10, 7)])
    nll, grad, _ = irl_loss_and_grad(np.zeros((15, 15)), expert_visitation([demo], spec, horizon),
                                  spec, horizon)
    assert nll == pytest.approx(horizon * math.log(9.0), abs=1e-9)
    assert grad.shape == (15, 15)


def test_nll_matches_oracle():
    rs = np.random.RandomState(4)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    horizon = 4
    demo = demo_from_rows([(2, 2), (3, 2), (3, 3), (2, 3), (2, 2)])
    nll, grad, _ = irl_loss_and_grad(reward, expert_visitation([demo], spec, horizon), spec, horizon)
    dist = enumerate_paths(reward, spec, CellIndex(2, 2), horizon)
    assert nll == pytest.approx(dist.nll(demo.cells), abs=1e-9)
    np.testing.assert_allclose(grad, dist.grad([demo]), atol=1e-9)


def test_nll_decreases_with_reward_sharpening():
    spec = small_spec(rows=7, cols=7, anchor=(3, 3))
    horizon = 3
    path = [(3, 3), (4, 3), (5, 3), (6, 3)]
    base = np.full((7, 7), -1.0)
    for r, c in path:
        base[r, c] = 0.0
    demo = demo_from_rows(path)
    expert = expert_visitation([demo], spec, horizon)
    nlls = []
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
        nll, _, _ = irl_loss_and_grad(base * scale, expert, spec, horizon)
        nlls.append(nll)
    assert all(b < a for a, b in zip(nlls, nlls[1:]))


def test_grad_matches_finite_differences():
    rs = np.random.RandomState(5)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    horizon = 3
    demo = demo_from_rows([(2, 2), (3, 3), (4, 4), (4, 4)])
    expert = expert_visitation([demo], spec, horizon)
    nll, grad, _ = irl_loss_and_grad(reward, expert, spec, horizon)
    eps = 1e-5
    for _ in range(10):
        r, c = rs.randint(5), rs.randint(5)
        up, dn = reward.copy(), reward.copy()
        up[r, c] += eps
        dn[r, c] -= eps
        nup, _, _ = irl_loss_and_grad(up, expert, spec, horizon)
        ndn, _, _ = irl_loss_and_grad(dn, expert, spec, horizon)
        fd = (nup - ndn) / (2 * eps)
        assert abs(grad[r, c] - fd) <= 1e-5 * max(abs(fd), abs(grad[r, c]), 1e-8)


def random_walk_demo(spec, horizon, rs):
    """One random in-grid walk of ``horizon`` moves from the anchor."""
    cells = [(spec.anchor.row, spec.anchor.col)]
    for _ in range(horizon):
        r, c = cells[-1]
        cells.append((min(max(r + rs.randint(-1, 2), 0), spec.rows - 1),
                      min(max(c + rs.randint(-1, 2), 0), spec.cols - 1)))
    return demo_from_rows(cells)


def random_walk_expert(spec, horizon, rs):
    """mu_hat of one random in-grid walk of ``horizon`` moves from the anchor."""
    return expert_visitation([random_walk_demo(spec, horizon, rs)], spec, horizon)


def test_box_loss_and_grad_equal_full_grid_bitwise():
    rs = np.random.RandomState(21)
    cases = []
    for rows, cols in ((9, 9), (12, 17), (25, 11)):
        for anchor in ((0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1),
                       (0, cols // 2), (rows // 2, cols - 1), (rows // 2, cols // 2)):
            for horizon in (1, 2, min(rows, cols) // 2 - 1, max(rows, cols)):
                cases.append((rows, cols, anchor, horizon))
    # the benchmark geometries: the 65x65 box the default config (128x128,
    # H=32, anchor (32, 64)) fits on, and the acceptance config (40x40, H=16,
    # anchor (10, 20)) with its 27x33 box
    cases += [(65, 65, (32, 32), 32), (40, 40, (10, 20), 16), (27, 33, (10, 16), 16)]
    for rows, cols, anchor, horizon in cases:
        spec = small_spec(rows, cols, anchor)
        reward = rs.uniform(-3.0, 0.0, (rows, cols))
        expert = random_walk_expert(spec, horizon, rs)
        box, win = reachable_box(spec, horizon)
        full_nll, full_grad, _ = irl_loss_and_grad(reward, expert, spec, horizon)
        nll, grad, _ = irl_loss_and_grad(reward[win], expert[win], box, horizon)
        assert nll == full_nll
        assert np.array_equal(grad, full_grad[win])
        assert np.array_equal(np.signbit(grad), np.signbit(full_grad[win]))  # no -0.0
        off_box = np.ones((rows, cols), dtype=bool)
        off_box[win] = False
        assert not np.any(full_grad[off_box])


def _reference_views(padded, win):
    """The nine slices of a padded map at each action's successor, in ACTIONS order."""
    rows, cols = win
    return [padded[1 + dr + rows.start: 1 + dr + rows.stop, 1 + dc + cols.start: 1 + dc + cols.stop]
            for dr, dc in ACTIONS]


def grid_windows(spec, horizon):
    """The whole grid as every step's window: the plan without windows."""
    return [(slice(0, spec.rows), slice(0, spec.cols))] * (horizon + 1)


def reference_plan(reward, spec, horizon, windows):
    """Log-space value iteration and the forward pass on the given windows as
    nine stacked slices and nine scatters, keeping every value map: the
    formulation the probability-space passes replaced, kept as their
    reference. Returns (values, tables, visits); tables[t] covers windows[t]."""
    padded = np.full((spec.rows + 2, spec.cols + 2), -np.inf)
    values = np.zeros((horizon + 1, spec.rows, spec.cols))
    tables = [None] * horizon
    for t in range(horizon - 1, -1, -1):
        reach = windows[t + 1]
        padded[1:-1, 1:-1][reach] = reward[reach] + values[t + 1][reach]
        e = np.stack(_reference_views(padded, windows[t]))
        m = e.max(axis=0)
        e = np.exp(e - m)
        total = sum(e) if e[0].size == 1 else e.sum(axis=0)
        tables[t] = (e / total).transpose(1, 2, 0)
        values[t][windows[t]] = m + np.log(total)
    visits = np.zeros((horizon + 1, spec.rows, spec.cols))
    visits[0, spec.anchor.row, spec.anchor.col] = 1.0
    for t in range(horizon):
        landed = np.zeros((spec.rows + 2, spec.cols + 2))
        flow = visits[t][windows[t]] * tables[t].transpose(2, 0, 1)
        for view, mass in zip(_reference_views(landed, windows[t]), flow):
            view += mass
        visits[t + 1][windows[t + 1]] = landed[1:-1, 1:-1][windows[t + 1]]
    return values, tables, visits


def cut(table, outer, inner):
    """The part on window ``inner`` of a table that covers window ``outer``."""
    (o_rows, o_cols), (i_rows, i_cols) = outer, inner
    return table[i_rows.start - o_rows.start: i_rows.stop - o_rows.start,
                 i_cols.start - o_cols.start: i_cols.stop - o_cols.start]


@pytest.mark.parametrize("rows,cols,anchor,horizon", [
    (9, 9, (4, 4), 3),
    (12, 17, (5, 8), 6),
    (12, 17, (0, 0), 5),        # corner: the t = 1 window is 2x2
    (11, 14, (10, 13), 4),      # the opposite corner
    (7, 5, (3, 2), 9),          # the horizon outgrows the grid
    (3, 3, (1, 1), 4),          # the smallest grid
    (3, 3, (0, 2), 2),
    (27, 33, (10, 16), 16),     # the acceptance config's box
])
@pytest.mark.parametrize("whole_grid", [True, False], ids=["grid-windows", "reach-windows"])
def test_strided_planner_equals_the_sliced_reference_bitwise(rows, cols, anchor, horizon,
                                                               whole_grid):
    # the name is historical: the probability-space passes match the log-space
    # reference, which is the same bits on either set of windows, to rounding
    spec = small_spec(rows, cols, anchor)
    reward = np.random.RandomState(rows * cols + horizon).uniform(-3.0, 0.0, (rows, cols))
    windows = grid_windows(spec, horizon) if whole_grid else irl.reach_windows(spec, horizon)
    assert_plan_matches_reference(reward, spec, horizon, windows)


def assert_plan_matches_reference(reward, spec, horizon, windows, by_mass=False):
    """log Z within 1e-12 relative, tables and visits within 1e-12 absolute;
    ``by_mass`` compares each table row times the mass D_t of its cell."""
    ref_values, ref_tables, ref_visits = reference_plan(reward, spec, horizon, windows)
    log_partition, policy = soft_value_iteration(reward, spec, horizon)
    visits = expected_visitation(policy)  # the forward pass certifies the plan
    ref_log_z = ref_values[0, spec.anchor.row, spec.anchor.col]
    assert abs(log_partition - ref_log_z) <= 1e-12 * abs(ref_log_z)
    for t in range(horizon):
        table, ref = policy(t), cut(ref_tables[t], windows[t], policy.windows[t])
        if by_mass:
            mass = ref_visits[t][policy.windows[t]][..., None]
            table, ref = mass * table, mass * ref
        np.testing.assert_allclose(table, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(visits, ref_visits, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(expected_visitation(policy, summed=True),
                               ref_visits[1:].sum(axis=0), rtol=0.0, atol=1e-12)


def test_planner_keeps_no_value_maps():
    # the default config's 65x65 box: (33, 65, 65) per-step maps alone would
    # take 1,115,400 bytes, and (9, window) stacks 3,144,960
    spec = small_spec(65, 65, (32, 32))
    rs = np.random.RandomState(27)
    reward = rs.uniform(-3.0, 0.0, (65, 65))
    expert = random_walk_expert(spec, 32, rs)
    tracemalloc.start()
    try:
        irl_loss_and_grad(reward, expert, spec, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_500_000


def test_a_reward_past_the_float64_range_raises_instead_of_dividing_zero_by_zero():
    # 33 two-step paths from the anchor (reward 0) weigh 1: staying twice, or
    # stepping onto the ring (-1000) and then the outer ring (+1000). So
    # log Z = log 33, but every u_0 = exp(R - M_0) beta_1 on the window
    # anchor ± 1 underflows, the ring's through exp and the anchor's through beta_1
    spec = small_spec(5, 5, (2, 2))
    reward = np.full((5, 5), 1000.0)
    reward[1:4, 1:4] = -1000.0
    reward[2, 2] = 0.0
    with pytest.raises(irl.IrlDivergenceError, match="underflows at step 0"):
        soft_value_iteration(reward, spec, 2)
    # a uniform reward over [-2000, 0] on the default config's box
    spec = small_spec(65, 65, (32, 32))
    rs = np.random.RandomState(0)
    reward = rs.uniform(-2000.0, 0.0, (65, 65))
    expert = random_walk_expert(spec, 32, rs)
    with pytest.raises(irl.IrlDivergenceError, match="underflows at step"):
        irl_loss_and_grad(reward, expert, spec, 32)


@pytest.mark.parametrize("low", [-500.0, -800.0, -1200.0, -2000.0])
def test_wide_rewards_plan_to_rounding_or_raise(low):
    # never a silently wrong plan: each wide uniform reward on the default
    # config's box either matches the log-space reference or raises. Over
    # [-500, 0] none raises. The bound is loose, so over [-800, 0] seeds 1,
    # 2, 5 and 6 raise although they would plan exactly. Over [-2000, 0]
    # seed 11's forward weights underflow with its plan's, so a bound on
    # those weights alone passes its wrong plan.
    # A cell all of whose successors underflow has n_t = 0 and a row of 0s,
    # and no mass reaches it, so its row counts times its mass
    spec = small_spec(65, 65, (32, 32))
    raised = []
    for seed in range(12):
        reward = np.random.RandomState(seed).uniform(low, 0.0, (65, 65))
        try:
            assert_plan_matches_reference(reward, spec, 32, irl.reach_windows(spec, 32),
                                          by_mass=True)
        except irl.IrlDivergenceError:
            raised.append(seed)
    assert (raised == []) if low == -500.0 else (0 < len(raised) < 12)


def test_box_grad_matches_finite_differences_and_is_zero_off_box():
    rs = np.random.RandomState(22)
    spec = small_spec(rows=9, cols=9, anchor=(1, 4))
    horizon = 2  # box rows 0..3, cols 2..6
    reward = rs.uniform(-1.0, 0.0, (9, 9))
    expert = expert_visitation([demo_from_rows([(1, 4), (2, 5), (3, 5)])], spec, horizon)
    nll, grad, _ = irl_loss_and_grad(reward, expert, spec, horizon)
    off_box = np.ones((9, 9), dtype=bool)
    off_box[0:4, 2:7] = False
    assert np.all(grad[off_box] == 0.0)
    assert np.all(grad[~off_box] != 0.0)
    eps = 1e-5
    for r in range(9):
        for c in range(9):
            up, dn = reward.copy(), reward.copy()
            up[r, c] += eps
            dn[r, c] -= eps
            fd = (irl_loss_and_grad(up, expert, spec, horizon)[0]
                  - irl_loss_and_grad(dn, expert, spec, horizon)[0]) / (2 * eps)
            assert abs(grad[r, c] - fd) <= 1e-5 * max(abs(fd), abs(grad[r, c]), 1e-8)


def test_loss_requires_demo_at_start():
    spec = small_spec()
    demo = demo_from_rows([(1, 1), (2, 2), (2, 2), (2, 2)])
    with pytest.raises(ValueError, match="starts at"):
        expert_visitation([demo], spec, 3)


def test_expert_visitation_rejects_empty_demos():
    with pytest.raises(ValueError):
        expert_visitation([], small_spec(), 3)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_cfg(horizon, **overrides):
    """Linear-reward training over ``horizon`` steps, tol 1e-6 unless overridden."""
    return RunConfig(**{**dict(horizon=horizon, reward_mode="linear", tol=1e-6), **overrides})


def fit(feats, demo, spec, horizon, **overrides):
    """train_irl on ``spec`` from the visit counts of one demonstration."""
    expert = expert_visitation([demo], spec, horizon)
    return train_irl(feats, expert, spec, train_cfg(horizon, **overrides))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_irl_rejects_nonfinite_features(bad):
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    feats = np.zeros((5, 5, 2))
    feats[0, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fit(feats, demo, spec, 3, max_iters=3)


def test_train_irl_checks_its_raster_once_per_fit(monkeypatch):
    # the raster is fixed for the fit: one check, not one per evaluation
    checks, forwards = [], []
    real_check, real_forward = irl.check_features, irl.reward_forward
    monkeypatch.setattr(irl, "check_features", lambda f: checks.append(1) or real_check(f))
    monkeypatch.setattr(irl, "reward_forward",
                        lambda f, p: forwards.append(1) or real_forward(f, p))
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    fit(random_features((5, 5, 3), seed=12), demo, small_spec(), 3, tol=0.0, max_iters=4)
    assert (len(checks), len(forwards)) == (1, 5)


def test_train_tol_inf_single_iteration():
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    feats = random_features((5, 5, 3), seed=12)
    params, diag, _, _ = fit(feats, demo, spec, 3, tol=float("inf"), max_iters=50)
    assert diag.iterations == 1
    assert diag.converged
    assert np.any(params.as_vector() != 0.0)  # updated once


def test_train_reduces_nll():
    spec = small_spec(rows=9, cols=9, anchor=(4, 4))
    horizon = 4
    demo = demo_from_rows([(4, 4), (5, 4), (6, 4), (7, 4), (8, 4)])
    feats = np.zeros((9, 9, 2))
    feats[:, :, 0] = (np.arange(9)[:, None] - 4) / 4.0  # forward progress
    feats[:, :, 1] = np.abs(np.arange(9)[None, :] - 4) / 4.0
    _, diag, _, _ = fit(feats, demo, spec, horizon, max_iters=60, tol=1e-9, lr=0.1)
    assert diag.nll_history[-1] < diag.nll_history[0] - 0.5


def test_train_rejects_features_of_another_grid():
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    with pytest.raises(ValueError, match="features shape"):
        fit(np.zeros((6, 5, 2)), demo, spec, 3)


def test_train_rejects_expert_of_another_grid():
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    expert = expert_visitation([demo], spec, 3)
    for wrong in (expert[:, :4], expert[None], expert.ravel()):
        with pytest.raises(ValueError, match="expert shape"):
            train_irl(np.zeros((5, 5, 2)), wrong, spec, train_cfg(3))


# the acceptance experiment's configuration (criteria 07-09)
ACCEPTANCE_CFG = RunConfig(rows=40, cols=40, resolution=2.0, anchor_row=10, anchor_col=20,
                           horizon=16, rollouts=96, lr=0.1, max_iters=150, tol=1e-6)

# sha256 prefixes of train_irl's returned parameter bytes and nll_history at
# the default config and at ACCEPTANCE_CFG, scene seed = kind index, recorded
# before the planner passes dropped their per-call overhead
FIT_DIGESTS = {
    "straight": ("43f576a3bfd97eef", "c696935b2ddac578"),
    "curve": ("445ef1b3249deeec", "062043f69f199fed"),
    "intersection_left": ("3dc2af4d7656421a", "1b90f5bc4d054086"),
    "intersection_right": ("af8b4242518115c7", "5a5b4a5d5e1c0688"),
    "lane_change": ("2941e0e9d9e57e7a", "3e27d5c1315ddd12"),
    "stop": ("2a128d8c2295e0bb", "97a72fff98f5e8d7"),
}


def fit_digest(scene, cfg):
    """The scene's fit as predict_scene runs it, digested."""
    spec = cfg.grid_spec()
    box, window = reachable_box(spec, cfg.horizon)
    expert = expert_visitation(pipeline.build_demos(scene, cfg, spec), spec, cfg.horizon)[window]
    params, diag, _, _ = train_irl(pipeline.scaled_features(scene, box), expert.copy(), box,
                                   cfg)
    h = hashlib.sha256(params.as_vector().tobytes())
    h.update(np.array(diag.nll_history).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_fits_are_pinned_bitwise(kind):
    scene = normalize_to_target(generate_scene(kind, seed=SCENE_KINDS.index(kind)))
    digests = tuple(fit_digest(scene, cfg) for cfg in (RunConfig(), ACCEPTANCE_CFG))
    assert digests == FIT_DIGESTS[kind]


FRESH_FIT = """
import resource, sys
import numpy as np
from gridcast import config, grid, irl
features, expert = np.load(sys.argv[1]), np.load(sys.argv[2])
cfg = config.RunConfig()
box, _ = grid.reachable_box(cfg.grid_spec(), cfg.horizon)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
irl.train_irl(features, expert, box, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_default_fit_in_a_fresh_process_takes_few_page_faults(tmp_path):
    # a process that has freed no large array still has glibc's default 128 KiB
    # mmap threshold: a 540 KB hidden layer per step was mapped and unmapped
    # afresh, 47,680 minor faults over one 80-step fit of the default box. In
    # row blocks the fit read 500-9,000, as the planner's own temporaries
    # happened to meet glibc's heap trimming. Now it reads 189 (340 before the
    # planner passes dropped per-step temporaries) on this scene and on 18
    # others (six kinds, seeds 100-102), so the bound is half the 20,000 it was
    pytest.importorskip("resource")
    cfg = RunConfig()
    spec = cfg.grid_spec()
    box, window = reachable_box(spec, cfg.horizon)
    scene = normalize_to_target(generate_scene("curve", seed=100))
    np.save(tmp_path / "features.npy", pipeline.scaled_features(scene, box))
    np.save(tmp_path / "expert.npy", expert_visitation(pipeline.build_demos(scene, cfg, spec),
                                                       spec, cfg.horizon)[window])
    src = str(Path(irl.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FRESH_FIT, str(tmp_path / "features.npy"),
                          str(tmp_path / "expert.npy")], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, check=True)
    assert int(out.stdout) < 10_000


def test_path_reward_convention():
    reward = np.zeros((5, 5))
    reward[3, 2] = -2.0
    demo = demo_from_rows([(2, 2), (3, 2), (3, 2), (3, 2)])
    assert np.vdot(reward, expert_visitation([demo], small_spec(), 3)) == -6.0
