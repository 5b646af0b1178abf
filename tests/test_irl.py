import math

import numpy as np
import pytest

from gridcast import irl
from gridcast.config import RunConfig
from gridcast.grid import ACTIONS, CellIndex, GridSpec, reachable_box, valid_action_mask
from gridcast.irl import (
    Demonstration,
    RewardMapParams,
    build_demonstration,
    expected_visitation,
    expert_visitation,
    irl_loss_and_grad,
    reward_backward,
    reward_forward,
    soft_policy,
    soft_value_iteration,
    train_irl,
)
from gridcast.oracle import enumerate_paths


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
    params = RewardMapParams(mode="linear", w=np.array([1.0, 0.0]), b=0.0)
    field = reward_forward(features, params)
    assert field.max() == 0.0
    np.testing.assert_allclose(field[1:3, 1:3], 0.0)
    assert np.all(field[0, :] == -1.0)


def test_reward_forward_two_layer_finite_and_shift_invariant_argmax():
    feats = random_features((7, 7, 5), seed=2)
    params = RewardMapParams.two_layer(5, hidden=8, seed=3)
    field = reward_forward(feats, params)
    assert np.all(np.isfinite(field))
    assert field.max() == 0.0
    raw = feats @ params.w1.T + params.b1
    raw = np.maximum(raw, 0.0) @ params.w2 + params.b2
    assert np.unravel_index(raw.argmax(), raw.shape) == np.unravel_index(field.argmax(), field.shape)


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
    assert grads.b == pytest.approx(g.sum())


def test_reward_backward_zero_grad():
    feats = random_features((5, 5, 3), seed=6)
    grads = reward_backward(feats, RewardMapParams.linear(3), np.zeros((5, 5)))
    np.testing.assert_array_equal(grads.w, 0.0)
    assert grads.b == 0.0


@pytest.mark.parametrize("mode", ["linear", "two_layer"])
def test_reward_backward_matches_finite_differences(mode):
    feats = random_features((5, 5, 4), seed=7)
    g = random_features((5, 5), seed=8)
    if mode == "linear":
        params = RewardMapParams(mode="linear", w=random_features((4,), 9), b=0.3)
    else:
        params = RewardMapParams.two_layer(4, hidden=6, seed=10)
    analytic = reward_backward(feats, params, g).as_vector()
    vec = params.as_vector()
    eps = 1e-5

    def objective(v):
        p = params.with_vector(v)
        raw = (feats @ p.w if mode == "linear" else
               np.maximum(feats @ p.w1.T + p.b1, 0.0) @ p.w2)
        raw = raw + (p.b if mode == "linear" else p.b2)
        return float((g * raw).sum())

    rs = np.random.RandomState(11)
    for i in rs.choice(vec.size, size=min(10, vec.size), replace=False):
        up, dn = vec.copy(), vec.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (objective(up) - objective(dn)) / (2 * eps)
        assert abs(analytic[i] - fd) <= 1e-5 * max(abs(fd), abs(analytic[i]), 1e-8)


# ---------------------------------------------------------------------------
# soft value iteration
# ---------------------------------------------------------------------------

def test_uniform_reward_interior_policy_and_value():
    spec = small_spec(rows=13, cols=13, anchor=(6, 6))
    horizon = 3
    values = soft_value_iteration(np.zeros((13, 13)), spec, horizon)
    policy = soft_policy(values, np.zeros((13, 13)), spec)
    center = (6, 6)
    for t in range(horizon):
        np.testing.assert_allclose(policy(t)[center], np.full(9, 1.0 / 9.0), atol=1e-12)
        assert values[t][center] == pytest.approx((horizon - t) * math.log(9.0), abs=1e-9)


def test_single_step_prefers_high_reward_neighbor():
    spec = small_spec()
    reward = np.zeros((5, 5))
    reward[3, 2] = 5.0
    reward -= reward.max()
    policy = soft_policy(soft_value_iteration(reward, spec, horizon=1), reward, spec)
    best_action = policy(0)[2, 2].argmax()
    assert ACTIONS[best_action] == (1, 0)


def test_policy_matches_enumeration():
    rs = np.random.RandomState(0)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    start = CellIndex(2, 2)
    horizon = 4
    policy = soft_policy(soft_value_iteration(reward, spec, horizon), reward, spec)
    dist = enumerate_paths(reward, spec, start, horizon)
    # product of policy probabilities along each enumerated path
    probs = np.ones(dist.histories.shape[0])
    for t in range(horizon):
        r = dist.histories[:, t, 0].astype(int)
        c = dist.histories[:, t, 1].astype(int)
        dr = dist.histories[:, t + 1, 0].astype(int) - r
        dc = dist.histories[:, t + 1, 1].astype(int) - c
        actions = (dr + 1) * 3 + (dc + 1)
        probs *= policy(t)[r, c, actions]
    np.testing.assert_allclose(probs, dist.probs, atol=1e-9)


def test_visitation_matches_enumeration():
    rs = np.random.RandomState(1)
    spec = small_spec()
    reward = rs.uniform(-1.0, 0.0, (5, 5))
    start = CellIndex(2, 2)
    horizon = 4
    policy = soft_policy(soft_value_iteration(reward, spec, horizon), reward, spec)
    visit = expected_visitation(policy, spec, horizon)
    np.testing.assert_allclose(visit, enumerate_paths(reward, spec, start, horizon).marginals(), atol=1e-9)


def test_policy_shift_invariance():
    rs = np.random.RandomState(2)
    spec = small_spec()
    reward = rs.uniform(-2.0, 0.0, (5, 5))
    p1 = soft_policy(soft_value_iteration(reward, spec, 3), reward, spec)
    p2 = soft_policy(soft_value_iteration(reward + 17.3, spec, 3), reward + 17.3, spec)
    for t in range(3):
        np.testing.assert_allclose(p1(t), p2(t), atol=1e-12)


def test_policy_simplex_and_mass_conservation():
    rs = np.random.RandomState(3)
    for trial in range(20):
        rows, cols = rs.randint(3, 8, size=2)
        spec = GridSpec(rows=rows, cols=cols, resolution=1.0,
                        anchor=CellIndex(rs.randint(rows), rs.randint(cols)))
        horizon = rs.randint(1, 6)
        reward = rs.uniform(-3.0, 0.0, (rows, cols))
        policy = soft_policy(soft_value_iteration(reward, spec, horizon), reward, spec)
        valid = valid_action_mask(spec)
        for t in range(horizon):
            np.testing.assert_allclose(policy(t).sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(policy(t)[~valid] == 0.0)
        visit = expected_visitation(policy, spec, horizon)
        np.testing.assert_allclose(visit.sum(axis=(1, 2)), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# visitation helpers
# ---------------------------------------------------------------------------

def _one_hot_policy(spec, action):
    table = np.zeros((spec.rows, spec.cols, 9))
    table[:, :, action] = 1.0
    return lambda t: table


def test_deterministic_policy_unit_spikes():
    spec = small_spec(rows=8, cols=8, anchor=(1, 1))
    horizon = 4
    policy = _one_hot_policy(spec, ACTIONS.index((1, 1)))
    visit = expected_visitation(policy, spec, horizon)
    for t in range(horizon + 1):
        assert visit[t].max() == 1.0
        assert visit[t][1 + t, 1 + t] == 1.0


def test_uniform_policy_first_step():
    spec = small_spec(rows=7, cols=7, anchor=(3, 3))
    policy = soft_policy(soft_value_iteration(np.zeros((7, 7)), spec, 1), np.zeros((7, 7)), spec)
    visit = expected_visitation(policy, spec, 1)
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
    for rows, cols, anchor, horizon in cases:
        spec = small_spec(rows, cols, anchor)
        reward = rs.uniform(-3.0, 0.0, (rows, cols))
        expert = random_walk_expert(spec, horizon, rs)
        values = soft_value_iteration(reward, spec, horizon)
        visits = expected_visitation(soft_policy(values, reward, spec), spec, horizon)
        full_nll = (float(values[0, spec.anchor.row, spec.anchor.col])
                    - float(np.vdot(reward, expert)))
        full_grad = visits[1:].sum(axis=0) - expert
        nll, grad = irl_loss_and_grad(reward, expert, spec, horizon)
        assert nll == full_nll
        assert irl._nll_only(reward, expert, spec, horizon) == full_nll
        assert np.array_equal(grad, full_grad)
        assert np.array_equal(np.signbit(grad), np.signbit(full_grad))  # no -0.0


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
            fd = (irl._nll_only(up, expert, spec, horizon)
                  - irl._nll_only(dn, expert, spec, horizon)) / (2 * eps)
            assert abs(grad[r, c] - fd) <= 1e-5 * max(abs(fd), abs(grad[r, c]), 1e-8)


def test_loss_requires_demo_at_start():
    spec = small_spec()
    demo = demo_from_rows([(1, 1), (2, 2), (2, 2), (2, 2)])
    with pytest.raises(ValueError, match="starts at"):
        expert_visitation([demo], spec, 3)
    with pytest.raises(ValueError, match="starts at"):
        train_irl(np.zeros((5, 5, 2)), [demo], train_cfg(spec, 3))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_cfg(spec, horizon, **overrides):
    """Linear-reward training on ``spec`` from its anchor, tol 1e-6 unless overridden."""
    fields = dict(rows=spec.rows, cols=spec.cols, resolution=spec.resolution,
                  anchor_row=spec.anchor.row, anchor_col=spec.anchor.col,
                  horizon=horizon, reward_mode="linear", tol=1e-6)
    return RunConfig(**{**fields, **overrides})


def test_train_rejects_empty_demos():
    spec = small_spec()
    with pytest.raises(ValueError):
        train_irl(np.zeros((5, 5, 2)), [], train_cfg(spec, 3))


def test_train_tol_inf_single_iteration():
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    feats = random_features((5, 5, 3), seed=12)
    params, diag = train_irl(feats, [demo], train_cfg(spec, 3, tol=float("inf"), max_iters=50))
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
    params, diag = train_irl(feats, [demo],
                             train_cfg(spec, horizon, max_iters=60, tol=1e-9, lr=0.1))
    assert diag.nll_history[-1] < diag.nll_history[0] - 0.5


def test_gd_line_search_is_monotone():
    spec = small_spec(rows=9, cols=9, anchor=(4, 4))
    horizon = 4
    demo = demo_from_rows([(4, 4), (5, 5), (6, 6), (7, 7), (8, 8)])
    feats = random_features((9, 9, 4), seed=13)
    _, diag = train_irl(feats, [demo],
                        train_cfg(spec, horizon, optimizer="gd", lr=0.5, max_iters=40, tol=0.0))
    hist = diag.nll_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_train_reduces_demos_to_visit_counts_once(monkeypatch):
    calls = []
    real = irl.expert_visitation

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(irl, "expert_visitation", counting)
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    _, diag = train_irl(random_features((5, 5, 3), seed=14), [demo],
                        train_cfg(spec, 3, max_iters=5, tol=0.0))
    assert diag.iterations == 5
    assert len(calls) == 1


def test_fit_on_grid_equals_fit_on_its_reachable_box_bitwise():
    rs = np.random.RandomState(23)
    rows, cols, horizon = 15, 12, 3
    features = random_features((rows, cols, 4), seed=24)
    anchors = ((0, 0), (rows - 1, cols - 1), (0, cols // 2), (rows // 2, 0),
               (rows // 2, cols // 2))
    for mode in ("linear", "two_layer"):
        for optimizer in ("adam", "gd"):
            for anchor in anchors:
                spec = small_spec(rows, cols, anchor)
                box, (row_sl, col_sl) = reachable_box(spec, horizon)
                assert box.rows * box.cols < rows * cols
                demos = [random_walk_demo(spec, horizon, rs) for _ in range(2)]
                box_demos = [demo_from_rows([(c.row - row_sl.start, c.col - col_sl.start)
                                             for c in d.cells]) for d in demos]
                knobs = dict(reward_mode=mode, hidden=6, optimizer=optimizer,
                             max_iters=8, tol=0.0)
                params, diag = train_irl(features, demos, train_cfg(spec, horizon, **knobs))
                box_params, box_diag = train_irl(features[row_sl, col_sl], box_demos,
                                                 train_cfg(box, horizon, **knobs))
                assert diag.nll_history == box_diag.nll_history
                assert diag.final_grad_inf == box_diag.final_grad_inf
                assert np.array_equal(params.as_vector(), box_params.as_vector())


def test_train_cuts_to_the_box_once(monkeypatch):
    calls = []
    real = irl.reachable_box

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(irl, "reachable_box", counting)
    spec = small_spec(rows=9, cols=9, anchor=(1, 4))
    demo = demo_from_rows([(1, 4), (2, 5), (3, 5)])
    for optimizer in ("adam", "gd"):
        calls.clear()
        _, diag = train_irl(random_features((9, 9, 3), seed=25), [demo],
                            train_cfg(spec, 2, optimizer=optimizer, max_iters=4, tol=0.0))
        assert diag.iterations >= 2
        assert len(calls) == 1


def test_train_rejects_features_of_another_grid():
    spec = small_spec()
    demo = demo_from_rows([(2, 2), (3, 2), (4, 2), (4, 2)])
    with pytest.raises(ValueError, match="features shape"):
        train_irl(np.zeros((6, 5, 2)), [demo], train_cfg(spec, 3))


def test_path_reward_convention():
    reward = np.zeros((5, 5))
    reward[3, 2] = -2.0
    demo = demo_from_rows([(2, 2), (3, 2), (3, 2), (3, 2)])
    assert np.vdot(reward, expert_visitation([demo], small_spec(), 3)) == -6.0
