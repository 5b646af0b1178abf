from dataclasses import replace

import numpy as np
import pytest

from gridcast import pipeline, scene as scene_mod
from gridcast.config import RunConfig
from gridcast.scene import generate_scene

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
    # training reads only the box anchor ± horizon; the full-grid final
    # reward still sees the far corner
    real = scene_mod.rasterize_features

    def poisoned(scene, spec):
        features = real(scene, spec)
        features[-1, -1, 0] = np.nan
        return features

    monkeypatch.setattr(scene_mod, "rasterize_features", poisoned)
    cfg = replace(SMALL, max_iters=2)
    with pytest.raises(ValueError, match="non-finite"):
        pipeline.predict_scene(generate_scene("straight", seed=1), cfg, reasoning=True)


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


def test_straight_policy_is_forward_biased():
    spec = SMALL.grid_spec()
    policy = pipeline.straight_rollout_policy(spec)
    interior = policy(0)[10, 20]
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
    straight = pipeline.straight_rollout_policy(spec)(0)[r, c].reshape(3, 3)
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
