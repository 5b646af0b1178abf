import numpy as np
import pytest

from gridcast.grid import ACTIONS, CellIndex, GridSpec, reachable_box
from gridcast.irl import Policy, reach_windows, soft_value_iteration
from gridcast.rollout import (
    cluster_proposals,
    forecast_to_payload,
    Forecast,
    gather_path_features,
    path_to_trajectory,
    refine_offsets,
    sample_rollouts,
    score_modes,
    write_forecast,
)
from test_scene import streamed_json


def spec_of(rows=21, cols=21, anchor=(10, 10)):
    return GridSpec(rows=rows, cols=cols, resolution=1.0, anchor=CellIndex(*anchor))


def one_hot_policy(spec, action, horizon):
    """Every step takes ``action``, the only move with a nonzero weight."""
    weights = np.zeros(9)
    weights[action] = 1.0
    on_grid = np.ones((spec.rows, spec.cols))
    return Policy(spec, weights.reshape(3, 3),
                  [on_grid[win] for win in reach_windows(spec, horizon)[1:]])


def uniform_reward_policy(spec, horizon):
    reward = np.zeros((spec.rows, spec.cols))
    return soft_value_iteration(reward, spec, horizon)[1]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_deterministic_policy_identical_paths():
    spec = spec_of()
    horizon = 5
    policy = one_hot_policy(spec, ACTIONS.index((1, 0)), horizon)
    reward = np.zeros((spec.rows, spec.cols))
    batch = sample_rollouts(policy, reward, 16, seed=0)
    assert np.all(batch.cells == batch.cells[0])
    assert batch.cells[0, -1, 0] == 15


def test_rollouts_reproducible():
    spec = spec_of()
    policy = uniform_reward_policy(spec, 6)
    reward = np.zeros((21, 21))
    a = sample_rollouts(policy, reward, 32, seed=9)
    b = sample_rollouts(policy, reward, 32, seed=9)
    np.testing.assert_array_equal(a.cells, b.cells)
    np.testing.assert_array_equal(a.path_rewards, b.path_rewards)
    c = sample_rollouts(policy, reward, 32, seed=10)
    assert not np.array_equal(a.cells, c.cells)


def test_uniform_policy_first_step_frequencies():
    # 90000 rollouts: first-step counts stay inside 3-sigma binomial bands
    spec = spec_of()
    policy = uniform_reward_policy(spec, 1)
    reward = np.zeros((21, 21))
    batch = sample_rollouts(policy, reward, 90000, seed=123)
    n = 90000
    p = 1.0 / 9.0
    sigma = np.sqrt(n * p * (1 - p))
    offsets = batch.cells[:, 1, :] - np.array([10, 10])
    for dr, dc in ACTIONS:
        count = int(np.sum((offsets[:, 0] == dr) & (offsets[:, 1] == dc)))
        assert abs(count - n * p) < 3 * sigma


def test_path_rewards_accumulate_entered_cells():
    spec = spec_of()
    horizon = 4
    policy = one_hot_policy(spec, ACTIONS.index((1, 0)), horizon)
    reward = np.full((spec.rows, spec.cols), -0.5)
    batch = sample_rollouts(policy, reward, 3, seed=0)
    np.testing.assert_allclose(batch.path_rewards, -0.5 * horizon)


def test_rollouts_reject_a_reward_off_the_policy_grid():
    # the default config's 65x65 box policy sampled with the 128x128 reward
    spec = GridSpec(rows=128, cols=128, resolution=1.0, anchor=CellIndex(32, 64))
    box, window = reachable_box(spec, 32)
    policy = one_hot_policy(box, ACTIONS.index((1, 0)), 32)
    reward = np.zeros((spec.rows, spec.cols))
    with pytest.raises(ValueError, match=r"\(128, 128\).*\(65, 65\)"):
        sample_rollouts(policy, reward, 4, seed=0)
    batch = sample_rollouts(policy, reward[window], 4, seed=0)
    assert batch.cells[0, -1, 0] == box.anchor.row + 32


def test_gather_features_matches_direct_indexing():
    spec = spec_of(rows=9, cols=9, anchor=(4, 4))
    horizon = 5
    policy = uniform_reward_policy(spec, horizon)
    reward = np.zeros((9, 9))
    batch = sample_rollouts(policy, reward, 8, seed=4)
    rs = np.random.RandomState(0)
    stack = rs.uniform(size=(9, 9, 3))
    got = gather_path_features(batch, stack)
    for i in range(8):
        for t in range(horizon):
            r, c = batch.cells[i, t + 1]
            np.testing.assert_array_equal(got.features[i, t], stack[r, c])


def test_gather_constant_stack():
    spec = spec_of(rows=9, cols=9, anchor=(4, 4))
    policy = one_hot_policy(spec, ACTIONS.index((0, 1)), 3)
    batch = sample_rollouts(policy, np.zeros((9, 9)), 2, seed=0)
    stack = np.full((9, 9, 2), 7.5)
    got = gather_path_features(batch, stack)
    np.testing.assert_array_equal(got.features, 7.5)


# ---------------------------------------------------------------------------
# trajectory conversion
# ---------------------------------------------------------------------------

def test_straight_path_resampling():
    spec = GridSpec(rows=40, cols=9, resolution=1.0, anchor=CellIndex(0, 4))
    path = np.column_stack([np.arange(32), np.full(32, 4)])
    traj = path_to_trajectory(path, spec, n_points=30, speed=10.0, dt=0.1)
    np.testing.assert_allclose(traj[:, 0], np.arange(1, 31), atol=1e-12)
    np.testing.assert_allclose(traj[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(traj[-1], (30.0, 0.0), atol=1e-12)


def test_all_stay_path():
    spec = spec_of()
    path = np.tile([10, 10], (7, 1))
    traj = path_to_trajectory(path, spec, n_points=5, speed=8.0, dt=0.1)
    np.testing.assert_array_equal(traj, 0.0)


def test_short_path_clamps_at_terminus():
    spec = GridSpec(rows=40, cols=9, resolution=1.0, anchor=CellIndex(0, 4))
    path = np.column_stack([np.arange(4), np.full(4, 4)])  # 3 m long
    traj = path_to_trajectory(path, spec, n_points=10, speed=10.0, dt=0.1)
    np.testing.assert_allclose(traj[2:], np.tile([3.0, 0.0], (8, 1)), atol=1e-12)


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def _bundle(center, n, noise, rs):
    return center[None] + rs.uniform(-noise, noise, size=(n,) + center.shape)


def test_identical_copies_of_k_trajectories():
    t = np.linspace(0, 1, 10)
    base = [np.column_stack([t * 10, np.full(10, y)]) for y in (-5.0, 0.0, 5.0)]
    proposals = np.stack(base * 4)
    result = cluster_proposals(proposals, k=3, seed=0)
    anchors = sorted(result.anchors.tolist(), key=lambda a: a[0][1])
    expected = sorted([b.tolist() for b in base], key=lambda a: a[0][1])
    np.testing.assert_allclose(anchors, expected, atol=1e-9)


def test_all_identical_proposals_degenerate():
    proposals = np.tile(np.linspace(0, 1, 8)[None, :, None], (10, 1, 2))
    result = cluster_proposals(proposals, k=2, seed=1)
    np.testing.assert_allclose(result.anchors[0], result.anchors[1], atol=1e-12)
    np.testing.assert_allclose(result.anchors[0], proposals[0], atol=1e-12)


def test_two_bundles_recovered():
    rs = np.random.RandomState(7)
    t = np.linspace(0, 3, 15)
    a = np.column_stack([t * 8, np.zeros(15)])
    b = np.column_stack([t * 8, t * 3])
    proposals = np.vstack([_bundle(a, 50, 0.1, rs), _bundle(b, 50, 0.1, rs)])
    result = cluster_proposals(proposals, k=2, seed=3)
    for target in (a, b):
        err = min(np.linalg.norm(result.anchors[j] - target, axis=1).mean() for j in range(2))
        assert err < 0.2


def test_inertia_non_increasing():
    rs = np.random.RandomState(9)
    proposals = rs.uniform(-10, 10, size=(60, 12, 2))
    result = cluster_proposals(proposals, k=5, seed=5)
    hist = result.inertia_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_cluster_rejects_too_few():
    with pytest.raises(ValueError):
        cluster_proposals(np.zeros((3, 5, 2)), k=4, seed=0)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_smooth_anchor_unchanged():
    t = np.arange(1, 31, dtype=float)
    anchor = np.stack([np.column_stack([t, 0.5 * t])])  # straight through origin
    offsets = refine_offsets(anchor, smooth_weight=10.0)
    assert np.abs(offsets).max() < 1e-6


def test_zero_weight_zero_offsets():
    rs = np.random.RandomState(1)
    anchors = rs.uniform(-5, 5, size=(3, 12, 2))
    offsets = refine_offsets(anchors, smooth_weight=0.0)
    np.testing.assert_array_equal(offsets, 0.0)


def _curvature(traj):
    ext = np.vstack([[0.0, 0.0], traj])
    second = ext[2:] - 2 * ext[1:-1] + ext[:-2]
    return float((second ** 2).sum())


def test_zigzag_smoothed_toward_midpoint():
    t = np.arange(1, 21, dtype=float)
    anchor = np.column_stack([t, np.zeros(20)])
    anchor[9, 1] = 2.0  # single zig-zag perturbation
    offsets = refine_offsets(anchor[None], smooth_weight=10.0)
    refined = anchor + offsets[0]
    midpoint = 0.5 * (anchor[8] + anchor[10])
    assert np.linalg.norm(refined[9] - midpoint) < np.linalg.norm(anchor[9] - midpoint)
    assert _curvature(refined) < _curvature(anchor)


def test_final_equals_anchor_plus_offset_bit_exact():
    # pipeline convention: offsets are re-derived as final - anchors, so the
    # stored triple satisfies Y - anchors == offsets bitwise
    rs = np.random.RandomState(2)
    anchors = rs.uniform(-5, 5, size=(4, 10, 2))
    final = anchors + refine_offsets(anchors, smooth_weight=4.0)
    offsets = final - anchors
    np.testing.assert_array_equal(final - anchors, offsets)
    np.testing.assert_allclose(final, anchors + offsets, atol=0.0)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_equal_counts_equal_rewards_uniform():
    membership = np.repeat(np.arange(6), 10)
    p = score_modes(membership, np.zeros(60), k=6, temperature=1.0)
    np.testing.assert_allclose(p, 1.0 / 6.0, atol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_high_temperature_limit_is_frequency():
    membership = np.array([0] * 80 + [1] * 20)
    rewards = np.concatenate([np.full(80, -3.0), np.full(20, -1.0)])
    p = score_modes(membership, rewards, k=2, temperature=1e9)
    np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-6)


def test_counts_with_equal_rewards():
    membership = np.array([0] * 80 + [1] * 20)
    p = score_modes(membership, np.full(100, -2.0), k=2, temperature=1.0)
    np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-12)


def test_reward_tempering_shifts_mass():
    membership = np.array([0] * 50 + [1] * 50)
    rewards = np.concatenate([np.full(50, -4.0), np.full(50, -1.0)])
    p = score_modes(membership, rewards, k=2, temperature=1.0)
    assert p[1] > p[0]


def test_mode_probabilities_ignore_a_constant_reward_shift():
    # a path's reward sums the H cells it enters, so R + c adds H * c to every
    # path and to every cluster's mean; the softmax over modes cancels it
    rs = np.random.RandomState(30)
    membership = rs.randint(0, 5, size=96)  # the sixth cluster stays empty
    path_rewards = rs.uniform(-20.0, 0.0, size=96)
    horizon = 16
    for temperature in (1.0, 0.5, 3.0):
        p = score_modes(membership, path_rewards, 6, temperature)
        for c in (-50.0, 17.3, 1e3):
            q = score_modes(membership, path_rewards + horizon * c, 6, temperature)
            np.testing.assert_allclose(q, p, rtol=0.0, atol=1e-12)
            assert q[5] == 0.0


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        score_modes(np.zeros(4, dtype=int), np.zeros(4), k=1, temperature=0.0)


def test_forecast_payload_shape():
    f = Forecast(trajectories=np.zeros((2, 4, 2)), anchors=np.zeros((2, 4, 2)),
                 offsets=np.zeros((2, 4, 2)), probs=np.array([0.7, 0.3]),
                 proposals=np.zeros((5, 4, 2)))
    payload = forecast_to_payload(f)
    assert len(payload["modes"]) == 2
    assert payload["modes"][0]["prob"] == 0.7
    assert "proposals" not in payload
    assert "proposals" in forecast_to_payload(f, include_proposals=True)


def test_written_forecast_bytes_are_the_streamed_encoding(tmp_path):
    rs = np.random.RandomState(6)
    trajectories = rs.normal(size=(3, 5, 2))
    f = Forecast(trajectories=trajectories, anchors=trajectories - 0.25,
                 offsets=np.full((3, 5, 2), 0.25), probs=np.array([0.5, 0.3, 0.2]),
                 proposals=rs.normal(size=(4, 5, 2)))
    extra = {"reasoning": True, "scene": "curve_0001.json", "demo_horizon_factor": 2.0,
             "seed": 7}
    path = tmp_path / "f.forecast.json"
    write_forecast(path, f, include_proposals=True, extra=extra)
    assert path.read_bytes() == streamed_json({**forecast_to_payload(f, True), **extra})
