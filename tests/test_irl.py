import math
import tracemalloc

import numpy as np
import pytest

from gridcast import irl
from gridcast.config import RunConfig
from gridcast.grid import ACTIONS, CellIndex, GridSpec, reachable_box
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


def test_reward_forward_rejects_nonfinite():
    feats = np.zeros((3, 3, 2))
    feats[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        reward_forward(feats, RewardMapParams.linear(2))


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
    nll, grad = irl_loss_and_grad(reward, expert, spec, 3)
    for c in (-50.0, 17.3, 1e3):
        nll_c, grad_c = irl_loss_and_grad(reward + c, expert, spec, 3)
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

def _one_hot_policy(spec, action, horizon):
    """Every step takes ``action``, the only move with a nonzero weight."""
    weights = np.zeros(9)
    weights[action] = 1.0
    on_grid = np.ones((spec.rows, spec.cols))
    return irl.Policy(spec, weights.reshape(3, 3),
                      [on_grid[win] for win in irl.reach_windows(spec, horizon)[1:]])


def test_policy_rejects_a_table_off_its_window():
    # a whole-grid map where a window's belongs would read the wrong cells
    spec = small_spec(rows=9, cols=9, anchor=(4, 4))
    on_grid, weights = np.ones((9, 9)), np.ones((3, 3))
    with pytest.raises(ValueError, match=r"successor map 1 has shape \(9, 9\), "
                                         r"its window needs \(5, 5\)"):
        irl.Policy(spec, weights, [on_grid[3:6, 3:6], on_grid])


def test_policy_rejects_no_tables():
    with pytest.raises(ValueError, match="at least one step"):
        irl.Policy(small_spec(), np.ones((3, 3)), [])


def test_deterministic_policy_unit_spikes():
    spec = small_spec(rows=8, cols=8, anchor=(1, 1))
    horizon = 4
    policy = _one_hot_policy(spec, ACTIONS.index((1, 1)), horizon)
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
    nll, grad = irl_loss_and_grad(np.zeros((15, 15)), expert_visitation([demo], spec, horizon),
                                  spec, horizon)
    assert nll == pytest.approx(horizon * math.log(9.0), abs=1e-9)
    assert grad.shape == (15, 15)


def test_nll_matches_oracle():
    rs = np.random.RandomState(4)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    horizon = 4
    demo = demo_from_rows([(2, 2), (3, 2), (3, 3), (2, 3), (2, 2)])
    nll, grad = irl_loss_and_grad(reward, expert_visitation([demo], spec, horizon), spec, horizon)
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
        nll, _ = irl_loss_and_grad(base * scale, expert, spec, horizon)
        nlls.append(nll)
    assert all(b < a for a, b in zip(nlls, nlls[1:]))


def test_grad_matches_finite_differences():
    rs = np.random.RandomState(5)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    horizon = 3
    demo = demo_from_rows([(2, 2), (3, 3), (4, 4), (4, 4)])
    expert = expert_visitation([demo], spec, horizon)
    nll, grad = irl_loss_and_grad(reward, expert, spec, horizon)
    eps = 1e-5
    for _ in range(10):
        r, c = rs.randint(5), rs.randint(5)
        up, dn = reward.copy(), reward.copy()
        up[r, c] += eps
        dn[r, c] -= eps
        nup, _ = irl_loss_and_grad(up, expert, spec, horizon)
        ndn, _ = irl_loss_and_grad(dn, expert, spec, horizon)
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
        full_nll, full_grad = irl_loss_and_grad(reward, expert, spec, horizon)
        nll, grad = irl_loss_and_grad(reward[win], expert[win], box, horizon)
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
    nll, grad = irl_loss_and_grad(reward, expert, spec, horizon)
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


def test_train_tol_inf_single_iteration():
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    feats = random_features((5, 5, 3), seed=12)
    params, diag = fit(feats, demo, spec, 3, tol=float("inf"), max_iters=50)
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
    params, diag = fit(feats, demo, spec, horizon, max_iters=60, tol=1e-9, lr=0.1)
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


def test_path_reward_convention():
    reward = np.zeros((5, 5))
    reward[3, 2] = -2.0
    demo = demo_from_rows([(2, 2), (3, 2), (3, 2), (3, 2)])
    assert np.vdot(reward, expert_visitation([demo], small_spec(), 3)) == -6.0
