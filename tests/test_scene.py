import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridcast import scene as scene_mod
from gridcast.config import RunConfig
from gridcast.grid import CellIndex, GridSpec, reachable_box
from gridcast.scene import (
    AHEAD,
    AVALID,
    AVX,
    AVY,
    AX,
    AY,
    F_ANCHOR_DIST,
    F_CENTER_DIST,
    F_HEADING,
    F_OCCUPANCY,
    F_ON_ROAD,
    F_PROGRESS,
    LANE_OFFSET,
    LHEAD,
    LX0,
    LX1,
    LY0,
    LY1,
    MAX_SCENE_MAGNITUDE,
    SCENE_KINDS,
    SceneFormatError,
    apply_rigid,
    generate_scene,
    load_scene,
    normalize_to_target,
    rasterize_features,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    target_pose,
)


def transformed(scene, dx: float, dy: float, angle: float):
    """The scene rigidly moved into another frame, p -> R(angle) p + (dx, dy):
    every point, velocity and heading; to_world is dropped."""
    c, s = math.cos(angle), math.sin(angle)

    def turned(heading):
        return (heading + angle + math.pi) % (2.0 * math.pi) - math.pi

    def move(pts):
        return apply_rigid(pts, (dx, dy, angle))

    agents = scene.agents.copy()
    agents[..., [AX, AY]] = move(scene.agents[..., [AX, AY]])
    vx, vy = scene.agents[..., AVX], scene.agents[..., AVY]
    agents[..., AVX] = c * vx - s * vy
    agents[..., AVY] = s * vx + c * vy
    agents[..., AHEAD] = turned(scene.agents[..., AHEAD])
    lanes = scene.map_lanes.copy()
    for x, y in ((LX0, LY0), (LX1, LY1)):
        lanes[..., [x, y]] = move(scene.map_lanes[..., [x, y]])
    lanes[..., LHEAD] = turned(scene.map_lanes[..., LHEAD])
    return replace(scene, agents=agents, map_lanes=lanes, gt_future=move(scene.gt_future),
                   extended_future=None if scene.extended_future is None
                   else move(scene.extended_future),
                   agent_futures=None if scene.agent_futures is None
                   else move(scene.agent_futures),
                   to_world=None)


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


# sha256 prefixes of the JSON text of scene_to_dict(generate_scene(kind, seed))
# for seeds 0-7, recorded while each kind's route, speed profile, third agent
# and lanes were written in four separate ladders; the seeds cover both bend
# directions of "curve" (0 and 4 bend left, 1 right) and the draws that vary
# the "stop" profile
GENERATOR_DIGESTS = {
    "straight": ("5bce4d2c2f2f6104", "b04931a377e0af8e", "8c4b56afa370bba5", "c4e63b89ac6bf653",
                 "ac6d7045d7fe9872", "166b41f62d1708dd", "6e7ca5b028d81f06", "7da4d329cd611883"),
    "curve": ("4098b07e6fee91aa", "e9e856f8d497fa46", "b915b4c565d76d06", "37bf3159e4cb1bda",
              "b87030cf605e9302", "11e6932d00d8bb7f", "3d3a5594695b9402", "e6b0833dc3ef5159"),
    "intersection_left": ("f77dd7c51c0c0027", "1df44787e85ff001", "eee2bcae680a88e7",
                          "2c5b22f50167c453", "926b97ce48037b02", "9756782d30f61d59",
                          "b01d5fe2b81ee394", "1894a66d5de073c3"),
    "intersection_right": ("e6ed306c555ffec0", "d6f5038e64164011", "905171dc45a0c4c3",
                           "ae77e41e556a3848", "92a1f0f3d256fb05", "f87999338066a298",
                           "2aeaa5a0bb5719fb", "c908fee9185090d4"),
    "lane_change": ("f5ed3d2fe9b0c58a", "e6eed069e5fc5574", "4f7ad49e402d86c6",
                    "8f0ac448b3fe00d1", "e6f10463d9dab772", "81729084b31925dd",
                    "1b80d026138cd316", "a61ae5e69d7af6de"),
    "stop": ("68e521f41566b428", "178eeb33e17604a9", "a6a0804078c1e79a", "f66f81351d5eccb2",
             "04a36d5140e17512", "b5713bd6b303d4cd", "f15a250c6cc3265a", "658fd0ea165ca650"),
}


@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_generated_scenes_are_pinned_bitwise(kind):
    digests = tuple(
        hashlib.sha256(json.dumps(scene_to_dict(generate_scene(kind, seed)),
                                  sort_keys=True).encode()).hexdigest()[:16]
        for seed in range(8))
    assert digests == GENERATOR_DIGESTS[kind]


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
        np.testing.assert_allclose(apply_rigid(once.gt_future, once.to_world),
                                   moved.gt_future, atol=1e-9)


def test_normalize_requires_valid_target():
    scene = generate_scene("straight", seed=0)
    agents = scene.agents.copy()
    agents[scene.target_index, :, AVALID] = 0.0
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


# sha256 prefixes of rasterize_features on the default config's 65x65 box and
# its full 128x128 grid, scene seed = kind index, recorded with the search
# over all cells at once
RASTER_DIGESTS = {
    "straight": ("4757b6aa87a37ed6", "675d85799af9537e"),
    "curve": ("7417bd1ab2cde241", "fc5e576c03f6c5bb"),
    "intersection_left": ("77a14790771b9985", "d94f8b957172d5be"),
    "intersection_right": ("23398d18b11279f2", "2733ea66dfdf56d2"),
    "lane_change": ("f81c81ae85930aa8", "0e759cf3b90d7a09"),
    "stop": ("4fb9bf4a93fef428", "7451c876ae8decee"),
}


def test_blocked_raster_is_the_one_block_raster_bitwise(monkeypatch):
    spec = RunConfig().grid_spec()
    box, _ = reachable_box(spec, 32)
    for seed, kind in enumerate(SCENE_KINDS):
        scene = normalize_to_target(generate_scene(kind, seed=seed))
        n_segs = scene.map_lanes.shape[0] * scene.map_lanes.shape[1]
        rasters = {}
        # the default budget, blocks of 37 cells (a ragged last block) and one block
        for budget in (scene_mod.RASTER_BLOCK_BYTES, 8 * n_segs * 37, 1 << 40):
            monkeypatch.setattr(scene_mod, "RASTER_BLOCK_BYTES", budget)
            rasters[budget] = rasterize_features(scene, box).tobytes()
        assert len(set(rasters.values())) == 1, kind
        monkeypatch.undo()
        digests = tuple(hashlib.sha256(rasterize_features(scene, grid).tobytes()).hexdigest()[:16]
                        for grid in (box, spec))
        assert digests == RASTER_DIGESTS[kind], kind


@pytest.mark.parametrize("geometry, bound", [("box", 4_000_000), ("grid", 5_000_000)])
def test_raster_memory_does_not_grow_with_the_grid(geometry, bound):
    # searching every cell against all 72 lane segments at once took 19.7 MB
    # on the default box and 75.9 MB on the full 128x128 grid that render draws
    spec = RunConfig().grid_spec()
    grid = reachable_box(spec, 32)[0] if geometry == "box" else spec
    scene = normalize_to_target(generate_scene("curve", seed=5))
    tracemalloc.start()
    try:
        rasterize_features(scene, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


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


def test_load_rejects_agent_futures_that_do_not_match_the_scene(tmp_path):
    base = scene_to_dict(generate_scene("intersection_left", seed=5))
    futures = np.asarray(base["agent_futures"])
    assert futures.shape == (3, 30, 2)
    path = tmp_path / "bad.json"
    for bad in (futures[:1], futures[:, :5]):  # one agent of three; 5 steps of 30
        path.write_text(json.dumps({**base, "agent_futures": bad.tolist()}), encoding="utf-8")
        with pytest.raises(SceneFormatError) as info:
            load_scene(path)
        assert str(info.value) == (f"{path}: agent_futures must be N_a x T_f x 2 = "
                                   f"(3, 30, 2), got {bad.shape}")


def test_load_parse_error_has_line_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "agents": [[[,\n}', encoding="utf-8")
    with pytest.raises(SceneFormatError, match="line 2"):
        load_scene(path)


def test_load_rejects_a_value_beyond_the_magnitude_bound(tmp_path):
    base = scene_to_dict(generate_scene("intersection_left", seed=5))
    base["to_world"] = [1.0, 2.0, 0.5]
    path = tmp_path / "huge.json"
    for key in ("agents", "lanes", "gt_future", "extended_future", "agent_futures",
                "to_world", "dt"):
        for value in (MAX_SCENE_MAGNITUDE, -MAX_SCENE_MAGNITUDE):
            arr = np.asarray(base.get(key, 0.1), dtype=np.float64)
            arr.flat[-1] = value
            path.write_text(json.dumps({**base, key: arr.tolist()}), encoding="utf-8")
            if key != "dt" or value > 0:
                load_scene(path)
            arr.flat[-1] = math.nextafter(value, 2.0 * value)
            path.write_text(json.dumps({**base, key: arr.tolist()}), encoding="utf-8")
            with pytest.raises(SceneFormatError) as info:
                load_scene(path)
            assert str(info.value) == (f"{path}: {key} holds a value of magnitude "
                                       f"{abs(float(arr.flat[-1]))!r}, above MAX_SCENE_MAGNITUDE "
                                       "= 1e+09")


def test_generated_scenes_lie_within_the_magnitude_bound():
    for kind in SCENE_KINDS:
        for seed in range(50):
            scene_from_dict(scene_to_dict(generate_scene(kind, seed=seed)))


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
