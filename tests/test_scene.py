import hashlib
import json
import math

import numpy as np
import pytest

from gridcast.grid import CellIndex, GridSpec, reachable_box
from gridcast.scene import (
    AVALID,
    AX,
    AY,
    F_ANCHOR_DIST,
    F_CENTER_DIST,
    F_HEADING,
    F_OCCUPANCY,
    F_ON_ROAD,
    F_PROGRESS,
    LANE_OFFSET,
    SCENE_KINDS,
    SceneFormatError,
    generate_scene,
    load_scene,
    normalize_to_target,
    rasterize_features,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    target_pose,
    transformed,
)


def default_spec():
    return GridSpec(rows=128, cols=128, resolution=1.0, anchor=CellIndex(32, 64))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_straight_constant_velocity_endpoint():
    scene = generate_scene("straight", seed=7)
    assert np.linalg.norm(scene.gt_future[-1] - np.array([30.0, 0.0])) < 0.1


def test_stop_scene_final_displacement():
    scene = generate_scene("stop", seed=3)
    tail = scene.gt_future[-5:]
    assert np.linalg.norm(tail[-1] - tail[0]) < 0.1


def test_lane_change_final_offset():
    scene = generate_scene("lane_change", seed=11)
    assert 3.0 <= abs(scene.gt_future[-1, 1]) <= 4.0
    assert abs(scene.gt_future[-1, 1] - LANE_OFFSET) < 0.5


def test_generator_deterministic():
    for kind in SCENE_KINDS:
        a = generate_scene(kind, seed=5)
        b = generate_scene(kind, seed=5)
        np.testing.assert_array_equal(a.agents, b.agents)
        np.testing.assert_array_equal(a.map_lanes, b.map_lanes)
        np.testing.assert_array_equal(a.gt_future, b.gt_future)
        np.testing.assert_array_equal(a.extended_future, b.extended_future)


def test_generator_seed_variation():
    a = generate_scene("curve", seed=1)
    b = generate_scene("curve", seed=2)
    assert not np.array_equal(a.gt_future, b.gt_future)


def test_extended_future_covers_double_horizon():
    for kind in SCENE_KINDS:
        scene = generate_scene(kind, seed=0)
        assert scene.extended_future.shape[0] == 2 * scene.gt_future.shape[0]
        np.testing.assert_allclose(scene.extended_future[:30], scene.gt_future)


def test_generated_scene_is_canonical():
    scene = generate_scene("intersection_left", seed=4)
    x, y, heading, speed = target_pose(scene)
    assert abs(x) < 1e-9 and abs(y) < 1e-9 and abs(heading) < 1e-9
    assert 3.0 < speed < 11.0


def test_speed_continuity():
    for kind in SCENE_KINDS:
        scene = generate_scene(kind, seed=6)
        pts = np.vstack([scene.agents[0, :, [AX, AY]].T, scene.extended_future])
        step_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        accel = np.abs(np.diff(step_len)) / scene.dt / scene.dt
        assert accel.max() < 6.0  # bounded acceleration across past and future


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        generate_scene("zigzag", seed=0)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_identity_on_canonical():
    scene = generate_scene("straight", seed=1)
    norm = normalize_to_target(scene)
    np.testing.assert_array_equal(norm.agents, scene.agents)
    np.testing.assert_array_equal(norm.gt_future, scene.gt_future)
    assert norm.to_world == (0.0, 0.0, 0.0)


def test_normalize_rotated_target():
    scene = generate_scene("straight", seed=2)
    moved = transformed(scene, dx=10.0, dy=5.0, angle=math.pi / 2.0)
    x, y, heading, _ = target_pose(moved)
    assert (x, y) == pytest.approx((10.0, 5.0), abs=1e-9)
    assert heading == pytest.approx(math.pi / 2.0, abs=1e-9)
    norm = normalize_to_target(moved)
    nx, ny, nheading, _ = target_pose(norm)
    assert (nx, ny, nheading) == (0.0, 0.0, 0.0)
    # a point one meter along old +y maps to one meter along +x
    probe = np.array([[10.0, 6.0]])
    from gridcast.scene import apply_rigid

    restored = apply_rigid(probe - [10.0, 5.0], (0.0, 0.0, -math.pi / 2.0))
    np.testing.assert_allclose(restored, [[1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(norm.gt_future, scene.gt_future, atol=1e-9)


def test_normalize_idempotent_and_invertible():
    rs = np.random.RandomState(0)
    for seed in range(5):
        scene = generate_scene(SCENE_KINDS[seed % len(SCENE_KINDS)], seed=seed)
        moved = transformed(scene, dx=float(rs.uniform(-50, 50)),
                            dy=float(rs.uniform(-50, 50)),
                            angle=float(rs.uniform(-math.pi, math.pi)))
        once = normalize_to_target(moved)
        twice = normalize_to_target(once)
        np.testing.assert_array_equal(once.agents, twice.agents)
        np.testing.assert_array_equal(once.gt_future, twice.gt_future)
        assert once.to_world == twice.to_world
        # composing with the stored inverse recovers the moved-frame coords
        from gridcast.scene import apply_rigid

        np.testing.assert_allclose(apply_rigid(once.gt_future, once.to_world),
                                   moved.gt_future, atol=1e-9)


def test_normalize_requires_valid_target():
    scene = generate_scene("straight", seed=0)
    agents = scene.agents.copy()
    agents[scene.target_index, :, AVALID] = 0.0
    from dataclasses import replace

    with pytest.raises(ValueError):
        normalize_to_target(replace(scene, agents=agents))


# sha256 prefixes of transformed(...) and of its normalization, recorded when
# normalize_to_target and transformed each carried their own transform code
RIGID_DIGESTS = {
    "straight": ("c05a35947caaaf12", "6e35023546534b8f"),
    "curve": ("8c84ef17abf4f32e", "53431bc4c92f82ea"),
    "intersection_left": ("db448cc555f26e8c", "4b1852a2971a62ff"),
    "intersection_right": ("948fe3ae1244247a", "d2280e081207a98d"),
    "lane_change": ("68dcba1ccdff8221", "527b1a9b3f2bc823"),
    "stop": ("13e9d3510b20dca0", "afd6f84b78c7a26a"),
}


def _scene_digest(scene):
    h = hashlib.sha256()
    for arr in (scene.agents, scene.map_lanes, scene.gt_future, scene.extended_future,
                scene.agent_futures):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(scene.to_world).encode())
    return h.hexdigest()[:16]


def test_rigid_transforms_bitwise_stable_over_all_kinds():
    rs = np.random.RandomState(7)
    for i, kind in enumerate(SCENE_KINDS):
        moved = transformed(generate_scene(kind, seed=i), dx=float(rs.uniform(-50, 50)),
                            dy=float(rs.uniform(-50, 50)),
                            angle=float(rs.uniform(-math.pi, math.pi)))
        digests = (_scene_digest(moved), _scene_digest(normalize_to_target(moved)))
        assert digests == RIGID_DIGESTS[kind], kind


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

def test_centerline_cells_have_small_distance():
    scene = normalize_to_target(generate_scene("straight", seed=0))
    spec = default_spec()
    feats = rasterize_features(scene, spec)
    # cells on the route centerline: col 64, rows ahead of anchor
    d = spec.resolution
    for r in range(30, 60):
        assert abs(feats[r, 64, F_CENTER_DIST]) <= d / 2.0
        assert feats[r, 64, F_ON_ROAD] == 1.0
        assert feats[r, 64, F_HEADING] == pytest.approx(1.0, abs=1e-6)


def test_other_agent_occupancy_flag():
    scene = normalize_to_target(generate_scene("straight", seed=1))
    spec = default_spec()
    feats = rasterize_features(scene, spec)
    from gridcast.grid import world_to_cell

    for i in range(scene.agents.shape[0]):
        if i == scene.target_index:
            continue
        states = scene.agents[i]
        cell = world_to_cell(states[-1, [AX, AY]], spec)
        if cell is not None:
            assert feats[cell.row, cell.col, F_OCCUPANCY] == 1.0
    assert feats[..., F_OCCUPANCY].sum() <= scene.agents.shape[0] - 1


def test_progress_increases_along_route():
    scene = normalize_to_target(generate_scene("straight", seed=2))
    feats = rasterize_features(scene, default_spec())
    progress = feats[30:80, 64, F_PROGRESS]
    assert np.all(np.diff(progress) > 0)


def test_anchor_distance_channel():
    scene = normalize_to_target(generate_scene("straight", seed=3))
    feats = rasterize_features(scene, default_spec())
    assert feats[32, 64, F_ANCHOR_DIST] == 0.0
    assert feats[33, 64, F_ANCHOR_DIST] == pytest.approx(1.0)
    assert feats[32, 63, F_ANCHOR_DIST] == pytest.approx(1.0)


def test_rasterize_requires_normalized():
    scene = transformed(generate_scene("straight", seed=0), dx=3.0, dy=0.0, angle=0.1)
    with pytest.raises(ValueError):
        rasterize_features(scene, default_spec())


def test_features_finite_and_reproducible():
    scene = normalize_to_target(generate_scene("intersection_right", seed=9))
    spec = default_spec()
    a = rasterize_features(scene, spec)
    b = rasterize_features(scene, spec)
    assert np.all(np.isfinite(a))
    np.testing.assert_array_equal(a, b)
    onroad = a[..., F_ON_ROAD]
    assert set(np.unique(onroad)) <= {0.0, 1.0}


# (rows, cols, resolution, anchor, horizon): the default and the acceptance
# geometry, and an anchor on a corner, where the box is clipped on two sides
BOX_GEOMETRIES = [(128, 128, 1.0, (32, 64), 32), (40, 40, 2.0, (10, 20), 16),
                  (40, 40, 2.0, (0, 39), 16)]


@pytest.mark.parametrize("rows, cols, res, anchor, horizon", BOX_GEOMETRIES)
def test_box_raster_is_the_full_raster_cut_to_the_box_bitwise(rows, cols, res, anchor,
                                                             horizon):
    spec = GridSpec(rows=rows, cols=cols, resolution=res, anchor=CellIndex(*anchor))
    box, window = reachable_box(spec, horizon)
    outside = window[0].stop  # the first row below the box
    for seed, kind in enumerate(SCENE_KINDS):
        scene = normalize_to_target(generate_scene(kind, seed=seed))
        # agent 1 ends one row outside the box, agent 2 on its last row,
        # one column apart
        for agent, row, col in ((1, outside, 0), (2, outside - 1, -1)):
            scene.agents[agent, -1, [AX, AY]] = ((row - anchor[0] + 0.3) * res,
                                                 (col + 0.2) * res)
        full = rasterize_features(scene, spec)
        boxed = rasterize_features(scene, box)
        assert boxed.shape == (box.rows, box.cols, full.shape[-1])
        assert boxed.tobytes() == full[window].tobytes(), kind
        assert full[outside, anchor[1], F_OCCUPANCY] == 1.0
        assert full[..., F_OCCUPANCY].sum() == 2.0
        assert boxed[..., F_OCCUPANCY].sum() == 1.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def streamed_json(obj) -> bytes:
    """What json.dump(obj, fh, sort_keys=True) streams, then a newline."""
    return ("".join(json.JSONEncoder(sort_keys=True).iterencode(obj)) + "\n").encode()


def test_saved_scene_bytes_are_the_streamed_encoding(tmp_path):
    # pipeline.scene_stream_key hashes a scene file's bytes, so a change of
    # encoding would reseed every rollout
    for kind in SCENE_KINDS:
        scene = generate_scene(kind, seed=13)
        path = tmp_path / f"{kind}.json"
        save_scene(path, scene)
        assert path.read_bytes() == streamed_json(scene_to_dict(scene))


def test_save_load_roundtrip(tmp_path):
    scene = generate_scene("curve", seed=12)
    path = tmp_path / "scene.json"
    save_scene(path, scene)
    loaded = load_scene(path)
    np.testing.assert_array_equal(loaded.agents, scene.agents)
    np.testing.assert_array_equal(loaded.map_lanes, scene.map_lanes)
    np.testing.assert_array_equal(loaded.gt_future, scene.gt_future)
    np.testing.assert_array_equal(loaded.extended_future, scene.extended_future)
    np.testing.assert_array_equal(loaded.agent_futures, scene.agent_futures)
    assert loaded.scenario_kind == scene.scenario_kind
    assert loaded.dt == scene.dt


def test_load_rejects_no_agents(tmp_path):
    scene = generate_scene("straight", seed=0)
    payload = scene_to_dict(scene)
    payload["agents"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SceneFormatError, match="no agents"):
        load_scene(path)


def test_load_rejects_version_mismatch(tmp_path):
    scene = generate_scene("straight", seed=0)
    payload = scene_to_dict(scene)
    payload["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SceneFormatError, match="unsupported scene version"):
        load_scene(path)


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"', "null"])
def test_load_rejects_a_payload_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "scene.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SceneFormatError, match="must be a JSON object"):
        load_scene(path)
    with pytest.raises(SceneFormatError, match="must be a JSON object"):
        scene_from_dict(json.loads(text))


def test_load_parse_error_has_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "agents": [[[,\n}', encoding="utf-8")
    with pytest.raises(SceneFormatError, match="line 2"):
        load_scene(path)


def test_load_rejects_nonfinite_values_and_bad_shapes(tmp_path):
    # json writes NaN and Infinity, and json.load parses them back
    base = scene_to_dict(generate_scene("intersection_left", seed=5))
    base["to_world"] = [1.0, 2.0, 0.5]
    keys = ("agents", "lanes", "gt_future", "extended_future", "agent_futures", "to_world")
    rs = np.random.RandomState(707)
    path = tmp_path / "bad.json"
    for _ in range(60):
        key = keys[rs.randint(len(keys))]
        arr = np.asarray(base[key], dtype=np.float64)
        arr.flat[rs.randint(arr.size)] = (np.nan, np.inf, -np.inf)[rs.randint(3)]
        path.write_text(json.dumps({**base, key: arr.tolist()}), encoding="utf-8")
        with pytest.raises(SceneFormatError, match=f"{key} contains non-finite values"):
            load_scene(path)
    for key, values in (("dt", (0.0, -0.1, float("nan"), float("inf"), [0.1])),
                        ("target_index", (3, -1, 1.0, True, "0", None))):
        for value in values:
            path.write_text(json.dumps({**base, key: value}), encoding="utf-8")
            with pytest.raises(SceneFormatError, match=key):
                load_scene(path)
    for key in ("extended_future", "agent_futures"):
        arr = np.asarray(base[key])
        wide = np.concatenate([arr, arr[..., :1]], axis=-1)
        path.write_text(json.dumps({**base, key: wide.tolist()}), encoding="utf-8")
        with pytest.raises(SceneFormatError, match=f"{key} must be"):
            load_scene(path)
