from dataclasses import replace

import numpy as np
import pytest

from gridcast import irl, occupancy, pipeline, rng, rollout, scene as scene_mod
from gridcast.config import RunConfig
from gridcast.scene import generate_scene
from test_irl import grid_windows, reference_plan

SMALL = RunConfig(rows=40, cols=40, resolution=2.0, anchor_row=10, anchor_col=20,
                  horizon=17, rollouts=48, max_iters=25, tol=1e-5, lr=0.1)


def test_forecast_invariants():
    scene = generate_scene("curve", seed=8)
    result = pipeline.predict_scene(scene, SMALL, reasoning=True, stream_key=8)
    f = result.forecast
    assert f.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(f.probs >= 0.0)
    np.testing.assert_array_equal(f.trajectories - f.anchors, f.offsets)
    # proposals and refined modes start within one cell of the origin
    first = np.linalg.norm(f.proposals[:, 0, :], axis=1)
    assert first.max() <= SMALL.resolution + 1e-9
    mode_first = np.linalg.norm(f.trajectories[:, 0, :], axis=1)
    assert mode_first.max() <= SMALL.resolution + 1e-9
    assert f.trajectories.shape == (SMALL.modes, SMALL.t_future, 2)


def test_pipeline_deterministic():
    scene = generate_scene("lane_change", seed=4)
    a = pipeline.predict_scene(scene, SMALL, reasoning=True, stream_key=4)
    b = pipeline.predict_scene(scene, SMALL, reasoning=True, stream_key=4)
    np.testing.assert_array_equal(a.forecast.trajectories, b.forecast.trajectories)
    np.testing.assert_array_equal(a.forecast.probs, b.forecast.probs)
    np.testing.assert_array_equal(a.reward, b.reward)


def test_nonfinite_feature_off_the_training_box_is_rejected(monkeypatch):
    # reasoning rasterises only the box anchor ± horizon, so the poisoned
    # corner is the box's corner, which the fit reads
    real = scene_mod.rasterize_features

    def poisoned(scene, spec):
        features = real(scene, spec)
        features[-1, -1, 0] = np.nan
        return features

    monkeypatch.setattr(scene_mod, "rasterize_features", poisoned)
    cfg = replace(SMALL, max_iters=2)
    with pytest.raises(ValueError, match="non-finite"):
        pipeline.predict_scene(generate_scene("straight", seed=1), cfg, reasoning=True)


def test_box_policy_rollouts_and_occupancy_match_the_whole_box_plan():
    cfg = replace(SMALL, max_iters=5)
    result = pipeline.predict_scene(generate_scene("curve", seed=8), cfg, reasoning=True,
                                    stream_key=8)
    spec, box, horizon = result.spec, result.policy.spec, cfg.horizon
    assert (box.rows, box.cols) == result.reward.shape
    assert result.policy.windows == irl.reach_windows(box, horizon)
    # the same box reward planned in log space, every step on the whole box,
    # as a policy: u_t = exp(R + V_{t+1}), shifted by its maximum, on windows[t+1]
    ref_values, ref_tables, ref_visits = reference_plan(result.reward, box, horizon,
                                                        grid_windows(box, horizon))
    succ = []
    for value, win in zip(ref_values[1:], result.policy.windows[1:]):
        log_u = (result.reward + value)[win]
        succ.append(np.exp(log_u - log_u.max()))
    whole = irl.Policy(box, np.ones((3, 3)), succ)
    np.testing.assert_allclose(irl.expected_visitation(result.policy), ref_visits,
                               rtol=0.0, atol=1e-12)
    seed = rng.derive_seed(cfg.seed, result.stream_key)
    windowed = rollout.sample_rollouts(result.policy, result.reward, cfg.rollouts, seed)
    plain = rollout.sample_rollouts(whole, result.reward, cfg.rollouts, seed)
    np.testing.assert_array_equal(windowed.cells, plain.cells)
    np.testing.assert_allclose(windowed.path_rewards, plain.path_rewards, rtol=1e-12)

    expected = np.zeros((spec.rows, spec.cols, cfg.t_future))
    expected[result.window] = occupancy.predict_occupancy(whole, cfg.t_future)
    np.testing.assert_allclose(pipeline.predicted_occupancy(result, cfg), expected,
                               rtol=0.0, atol=1e-12)
    # the rollouts read policy.probs at their cells; policy(t) builds the
    # whole table from the same maps on each call, so a further call
    # returns the same bits
    for t, win in enumerate(result.policy.windows[:-1]):
        first = result.policy(t)
        assert first.tobytes() == result.policy(t).tobytes()
        np.testing.assert_allclose(first, ref_tables[t][win], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(whole(t), ref_tables[t][win], rtol=0.0, atol=1e-12)


def test_a_final_plan_that_underflows_raises(monkeypatch):
    # train_irl returns the parameters after its last Adam step, which no
    # loss evaluation planned; the final plan is certified all the same
    def wild(features, expert, spec, cfg):
        params = irl.RewardMapParams.linear(features.shape[-1])
        return params.with_vector(np.full(features.shape[-1], 1e4)), irl.TrainDiagnostics()

    monkeypatch.setattr(irl, "train_irl", wild)
    with pytest.raises(irl.IrlDivergenceError, match="underflows at step"):
        pipeline.predict_scene(generate_scene("curve", seed=8), SMALL, reasoning=True)


@pytest.mark.parametrize("planned", [True, False])
def test_policy_tables_are_read_only(planned):
    spec = SMALL.grid_spec()
    horizon = 6
    if planned:
        reward = np.random.RandomState(4).uniform(-2.0, 0.0, (spec.rows, spec.cols))
        policy = irl.soft_value_iteration(reward, spec, horizon)[1]
    else:
        policy = pipeline.straight_rollout_policy(spec, horizon)
    for t in range(horizon):
        table = policy(t)
        before = table.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            np.exp(table, out=table)
        assert policy(t).tobytes() == before


def test_stream_key_changes_rollouts():
    scene = generate_scene("straight", seed=4)
    a = pipeline.predict_scene(scene, SMALL, reasoning=False, stream_key=1)
    b = pipeline.predict_scene(scene, SMALL, reasoning=False, stream_key=2)
    assert not np.array_equal(a.forecast.proposals, b.forecast.proposals)


def test_no_reasoning_skips_training():
    scene = generate_scene("stop", seed=2)
    result = pipeline.predict_scene(scene, SMALL, reasoning=False, stream_key=2)
    assert result.diagnostics is None
    assert not result.reasoning
    np.testing.assert_array_equal(result.reward, 0.0)


@pytest.mark.parametrize("anchor, horizon", [((10, 20), 17), ((0, 39), 17), ((39, 0), 50)])
def test_no_reasoning_box_plan_equals_the_full_grid_plan_bitwise(anchor, horizon):
    # a corner anchor clips the box on two sides; horizon 50 makes it the grid
    cfg = replace(SMALL, anchor_row=anchor[0], anchor_col=anchor[1], horizon=horizon)
    result = pipeline.predict_scene(generate_scene("curve", seed=3), cfg, reasoning=False,
                                    stream_key=3)
    spec = result.spec
    full = pipeline.straight_rollout_policy(spec, horizon)
    seed = rng.derive_seed(cfg.seed, result.stream_key)
    on_box = rollout.sample_rollouts(result.policy, result.reward, cfg.rollouts, seed)
    on_grid = rollout.sample_rollouts(full, np.zeros((spec.rows, spec.cols)), cfg.rollouts,
                                      seed)
    offset = np.array([result.window[0].start, result.window[1].start])
    np.testing.assert_array_equal(on_box.cells + offset, on_grid.cells)
    assert on_box.path_rewards.tobytes() == on_grid.path_rewards.tobytes()
    speed = scene_mod.target_pose(result.scene)[3]
    proposals = np.stack([rollout.path_to_trajectory(cells, spec, cfg.t_future, speed,
                                                     result.scene.dt)
                          for cells in on_grid.cells])
    assert result.forecast.proposals.tobytes() == proposals.tobytes()
    expected = occupancy.predict_occupancy(full, cfg.t_future)
    assert pipeline.predicted_occupancy(result, cfg).tobytes() == expected.tobytes()
    assert pipeline.grid_reward(result).tobytes() == np.zeros((spec.rows, spec.cols)).tobytes()


def test_straight_policy_is_forward_biased():
    spec = SMALL.grid_spec()
    policy = pipeline.straight_rollout_policy(spec, SMALL.horizon)
    interior = policy(0)[0, 0]  # the t = 0 window is the anchor (10, 20)
    from gridcast.grid import ACTIONS

    fwd = interior[ACTIONS.index((1, 0))]
    back = interior[ACTIONS.index((-1, 0))]
    assert fwd > 5 * back
    assert interior.sum() == pytest.approx(1.0, abs=1e-12)


def test_no_reasoning_occupancy():
    # horizon == t_future puts forecast step j exactly on planning step j
    from dataclasses import replace

    cfg = replace(SMALL, horizon=SMALL.t_future)
    result = pipeline.predict_scene(generate_scene("curve", seed=3), cfg, reasoning=False,
                                    stream_key=3)
    ogm = pipeline.predicted_occupancy(result, cfg)
    np.testing.assert_allclose(ogm.sum(axis=(0, 1)), 1.0, atol=1e-9)
    spec = result.spec
    r, c = spec.anchor.row, spec.anchor.col
    straight = pipeline.straight_rollout_policy(spec, cfg.horizon)(0)[0, 0].reshape(3, 3)
    np.testing.assert_allclose(ogm[r - 1: r + 2, c - 1: c + 2, 0], straight, atol=1e-12)


def test_select_demo_points_factors():
    scene = generate_scene("straight", seed=0)
    from dataclasses import replace

    assert pipeline.select_demo_points(scene, SMALL).shape[0] == 30
    cfg15 = replace(SMALL, demo_horizon_factor=1.5)
    assert pipeline.select_demo_points(scene, cfg15).shape[0] == 45
    cfg20 = replace(SMALL, demo_horizon_factor=2.0)
    assert pipeline.select_demo_points(scene, cfg20).shape[0] == 60
    bare = replace(scene, extended_future=None)
    with pytest.raises(ValueError):
        pipeline.select_demo_points(bare, cfg20)


def test_reasoning_beats_vanilla_on_turn():
    scene = generate_scene("intersection_left", seed=5)
    cfg = RunConfig(rows=40, cols=40, resolution=2.0, anchor_row=10, anchor_col=20,
                    horizon=17, rollouts=96, max_iters=120, tol=1e-6, lr=0.1)
    full = pipeline.score_prediction(pipeline.predict_scene(scene, cfg, True, stream_key=5))
    van = pipeline.score_prediction(pipeline.predict_scene(scene, cfg, False, stream_key=5))
    assert full.min_fde < van.min_fde
