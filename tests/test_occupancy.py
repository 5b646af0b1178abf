import math

import numpy as np
import pytest

from gridcast.grid import ACTIONS, CellIndex, GridSpec
from gridcast.irl import Policy, reach_windows, soft_value_iteration
from gridcast.occupancy import (
    focal_bce,
    predict_occupancy,
    rasterize_gt_ogm,
    read_ogm_binary,
    uniform_occupancy,
    write_ogm_binary,
)
from gridcast.scene import generate_scene, normalize_to_target
from dataclasses import replace


def spec_of(rows=64, cols=64, anchor=(16, 32), d=1.0):
    return GridSpec(rows=rows, cols=cols, resolution=d, anchor=CellIndex(*anchor))


def test_stationary_target_single_cell():
    scene = normalize_to_target(generate_scene("stop", seed=1))
    # keep only the target and zero out its future motion
    scene = replace(
        scene,
        agents=scene.agents[:1],
        target_index=0,
        gt_future=np.zeros_like(scene.gt_future),
        agent_futures=None,
    )
    spec = spec_of()
    ogm = rasterize_gt_ogm(scene, spec)
    for t in range(ogm.shape[2]):
        assert ogm[:, :, t].sum() == 1
        assert ogm[16, 32, t] == 1


def test_empty_futures_all_zero():
    scene = normalize_to_target(generate_scene("straight", seed=0))
    scene = replace(scene, gt_future=np.full((30, 2), 1e9), agent_futures=None)
    ogm = rasterize_gt_ogm(scene, spec_of())
    assert ogm.sum() == 0


def test_straight_target_monotone_cells():
    scene = normalize_to_target(generate_scene("straight", seed=3))
    scene = replace(scene, agents=scene.agents[:1], agent_futures=None)
    spec = spec_of()
    ogm = rasterize_gt_ogm(scene, spec)
    rows = [int(np.argwhere(ogm[:, :, t])[0][0]) for t in range(30)]
    assert rows == sorted(rows)
    assert rows[-1] - rows[0] == pytest.approx(29, abs=1)  # ~1 cell per step at 10 m/s


def test_gt_idempotent_and_agent_order_independent():
    scene = normalize_to_target(generate_scene("curve", seed=5))
    spec = spec_of()
    a = rasterize_gt_ogm(scene, spec)
    b = rasterize_gt_ogm(scene, spec)
    np.testing.assert_array_equal(a, b)
    flipped = replace(
        scene,
        agents=scene.agents[::-1].copy(),
        agent_futures=scene.agent_futures[::-1].copy(),
        target_index=scene.agents.shape[0] - 1 - scene.target_index,
    )
    np.testing.assert_array_equal(rasterize_gt_ogm(flipped, spec), a)


def one_hot_policy(spec, action, horizon):
    """Every step takes ``action``, the only move with a nonzero weight."""
    weights = np.zeros(9)
    weights[action] = 1.0
    on_grid = np.ones((spec.rows, spec.cols))
    return Policy(spec, weights.reshape(3, 3),
                  [on_grid[win] for win in reach_windows(spec, horizon)[1:]])


def test_deterministic_policy_spike_slices():
    spec = spec_of(rows=32, cols=9, anchor=(2, 4))
    horizon = 8
    policy = one_hot_policy(spec, ACTIONS.index((1, 0)), horizon)
    ogm = predict_occupancy(policy, n_steps=8)
    for t in range(8):
        assert ogm[:, :, t].sum() == pytest.approx(1.0, abs=1e-12)
        assert ogm[2 + t + 1, 4, t] == pytest.approx(1.0, abs=1e-12)


def test_uniform_policy_first_slice():
    spec = spec_of(rows=15, cols=15, anchor=(7, 7))
    horizon = 4
    reward = np.zeros((15, 15))
    policy = soft_value_iteration(reward, spec, horizon)[1]
    ogm = predict_occupancy(policy, n_steps=horizon)
    np.testing.assert_allclose(ogm[6:9, 6:9, 0], 1.0 / 9.0, atol=1e-12)


def test_slices_conserve_mass():
    spec = spec_of(rows=31, cols=31, anchor=(10, 15))
    horizon = 9
    rs = np.random.RandomState(0)
    reward = rs.uniform(-1, 0, (31, 31))
    policy = soft_value_iteration(reward, spec, horizon)[1]
    ogm = predict_occupancy(policy, n_steps=30)
    sums = ogm.sum(axis=(0, 1))
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_focal_bce_perfect_prediction():
    gt = np.zeros((8, 8, 4))
    gt[2, 2, :] = 1.0
    assert focal_bce(gt.astype(float), gt) < 1e-5


def test_focal_bce_reduces_to_half_bce():
    rs = np.random.RandomState(1)
    p = rs.uniform(0.05, 0.95, size=(6, 6, 3))
    y = (rs.uniform(size=(6, 6, 3)) < 0.3).astype(float)
    got = focal_bce(p, y, gamma=0.0, alpha=0.5)
    bce = float(np.mean(-y * np.log(p) - (1 - y) * np.log(1 - p)))
    assert got == pytest.approx(0.5 * bce, rel=1e-9)


def test_focal_bce_known_value():
    p = np.array([[[0.5]]])
    y = np.array([[[1.0]]])
    expected = 0.25 * 0.25 * math.log(2.0)
    assert focal_bce(p, y, gamma=2.0, alpha=0.25) == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(0.0433, abs=1e-4)


def test_focal_bce_validation():
    with pytest.raises(ValueError):
        focal_bce(np.zeros((2, 2, 1)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        focal_bce(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), gamma=-1.0)
    with pytest.raises(ValueError):
        focal_bce(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), alpha=1.5)


def test_focal_bce_nonnegative():
    rs = np.random.RandomState(2)
    for _ in range(20):
        p = rs.uniform(size=(4, 4, 2))
        y = (rs.uniform(size=(4, 4, 2)) < 0.5).astype(float)
        assert focal_bce(p, y) >= 0.0


def test_binary_roundtrip(tmp_path):
    gt = (np.random.RandomState(0).uniform(size=(5, 7, 3)) < 0.2).astype(np.uint8)
    path = tmp_path / "gt.stogm"
    write_ogm_binary(path, gt)
    np.testing.assert_array_equal(read_ogm_binary(path), gt)
    pred = np.random.RandomState(1).uniform(size=(5, 7, 3))
    write_ogm_binary(path, pred)
    np.testing.assert_allclose(read_ogm_binary(path), pred, atol=1e-7)


def test_uniform_baseline_mass():
    spec = spec_of(rows=10, cols=10, anchor=(5, 5))
    u = uniform_occupancy(spec, 4)
    np.testing.assert_allclose(u.sum(axis=(0, 1)), 1.0, atol=1e-12)
