"""Synthetic driving scenes in a vectorized format.

Scenes carry past agent states, lane polylines, and the target's future, all
in the target-centric frame (current position at the origin, heading along
+x). A deterministic rasterizer turns a scene into per-cell context features
for the reward map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .grid import GridSpec, cell_to_world, world_to_cell

# agent state channels
AX, AY, AVX, AVY, AHEAD, AVALID = range(6)
# lane segment channels
LX0, LY0, LX1, LY1, LHEAD, LTYPE = range(6)

LANE_TYPE_ROUTE = 1.0
LANE_HALF_WIDTH = 1.75
MAX_CENTERLINE_DIST = 8.0
LANE_OFFSET = 3.5

SCENE_KINDS = ("straight", "curve", "intersection_left", "intersection_right",
               "lane_change", "stop")

# feature stack channels
F_ON_ROAD, F_CENTER_DIST, F_HEADING, F_OCCUPANCY, F_PROGRESS, F_ANCHOR_DIST = range(6)
FEATURE_COUNT = 6


class SceneFormatError(ValueError):
    """Raised for malformed or unsupported scene files."""


@dataclass
class SceneContext:
    """Vectorized scene: agents (N_a, T_h, 6), lanes (N_m, N_s, 6), futures."""

    agents: np.ndarray
    map_lanes: np.ndarray
    target_index: int
    gt_future: np.ndarray                  # (T_f, 2)
    extended_future: np.ndarray | None     # (T_ext, 2), T_ext >= T_f
    agent_futures: np.ndarray | None       # (N_a, T_f, 2)
    scenario_kind: str
    dt: float = 0.1
    to_world: tuple[float, float, float] | None = None  # (dx, dy, angle)


def target_pose(scene: SceneContext):
    """Target's last valid observed (x, y, heading, speed)."""
    states = scene.agents[scene.target_index]
    valid = np.nonzero(states[:, AVALID] > 0.5)[0]
    if valid.size == 0:
        raise ValueError("target has no valid current state")
    s = states[valid[-1]]
    return float(s[AX]), float(s[AY]), float(s[AHEAD]), float(math.hypot(s[AVX], s[AVY]))


def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _compose(f, g):
    """Rigid transforms as (dx, dy, angle), applied p -> R(angle) p + (dx, dy)."""
    dx1, dy1, a1 = f
    dx2, dy2, a2 = g
    c, s = math.cos(a1), math.sin(a1)
    return (dx1 + c * dx2 - s * dy2, dy1 + s * dx2 + c * dy2, _wrap_angle(a1 + a2))


def apply_rigid(points: np.ndarray, transform) -> np.ndarray:
    dx, dy, a = transform
    c, s = math.cos(a), math.sin(a)
    pts = np.asarray(points, dtype=np.float64)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1] + dx
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1] + dy
    return out


def _rigidly_moved(scene: SceneContext, point_map, angle: float, to_world) -> SceneContext:
    """The scene with every point sent through ``point_map`` and every velocity
    and heading turned by ``angle``; ``point_map`` must rotate by that angle."""
    c, s = math.cos(angle), math.sin(angle)
    agents = scene.agents.copy()
    agents[..., [AX, AY]] = point_map(scene.agents[..., [AX, AY]])
    vx, vy = scene.agents[..., AVX], scene.agents[..., AVY]
    agents[..., AVX] = c * vx - s * vy
    agents[..., AVY] = s * vx + c * vy
    agents[..., AHEAD] = _wrap_angle(scene.agents[..., AHEAD] + angle)
    lanes = scene.map_lanes.copy()
    lanes[..., [LX0, LY0]] = point_map(scene.map_lanes[..., [LX0, LY0]])
    lanes[..., [LX1, LY1]] = point_map(scene.map_lanes[..., [LX1, LY1]])
    lanes[..., LHEAD] = _wrap_angle(scene.map_lanes[..., LHEAD] + angle)
    return replace(
        scene,
        agents=agents,
        map_lanes=lanes,
        gt_future=point_map(scene.gt_future),
        extended_future=None if scene.extended_future is None else point_map(scene.extended_future),
        agent_futures=None if scene.agent_futures is None else point_map(scene.agent_futures),
        to_world=to_world,
    )


def normalize_to_target(scene: SceneContext) -> SceneContext:
    """Rigidly map the scene so the target's current pose is origin, heading +x.

    Idempotent; the inverse transform back to the incoming frame is composed
    into ``to_world`` so raw coordinates stay recoverable.
    """
    x0, y0, heading, _ = target_pose(scene)
    inverse = (x0, y0, heading)  # normalized -> incoming frame
    if max(abs(x0), abs(y0), abs(heading)) < 1e-12:
        return replace(scene, to_world=scene.to_world or (0.0, 0.0, 0.0))
    # forward transform: p' = R(-heading) (p - p0)
    c, s = math.cos(-heading), math.sin(-heading)

    def tf_points(pts):
        out = np.empty_like(pts)
        out[..., 0] = c * (pts[..., 0] - x0) - s * (pts[..., 1] - y0)
        out[..., 1] = s * (pts[..., 0] - x0) + c * (pts[..., 1] - y0)
        return out

    to_world = inverse if scene.to_world is None else _compose(scene.to_world, inverse)
    return _rigidly_moved(scene, tf_points, -heading, to_world)


def transformed(scene: SceneContext, dx: float, dy: float, angle: float) -> SceneContext:
    """Rigidly move a scene into another frame (testing/visualization helper)."""
    return _rigidly_moved(scene, lambda pts: apply_rigid(pts, (dx, dy, angle)), angle, None)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

T_HISTORY = 20
T_FUTURE = 30
DT = 0.1

# maneuver onsets sit near the forecast edge: the scored window truncates the
# turn mid-way, while the extended future reveals it completely
TURN_ENTRY = 12.0
CURVE_ENTRY = 16.0
TURN_SPEED = 5.5

_KIND_CODE = {kind: i for i, kind in enumerate(SCENE_KINDS)}


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _route_polyline(kind: str, draws: np.ndarray) -> np.ndarray:
    """Dense centerline through the origin with entry heading +x."""
    if kind in ("straight", "stop"):
        xs = np.arange(-45.0, 115.0, 0.2)
        return np.column_stack([xs, np.zeros_like(xs)])
    if kind == "curve":
        # the bend begins near the forecast edge so long-horizon supervision
        # reveals curvature the scored window only hints at
        radius = 25.0 + 20.0 * draws[0]
        sign = 1.0 if draws[1] < 0.5 else -1.0
        entry_x = np.arange(-45.0, CURVE_ENTRY, 0.2)
        entry = np.column_stack([entry_x, np.zeros_like(entry_x)])
        sweep = min(100.0 / radius, 1.9)
        theta = np.arange(0.0, sweep, 0.2 / radius)
        arc = np.column_stack([CURVE_ENTRY + radius * np.sin(theta),
                               sign * radius * (1.0 - np.cos(theta))])
        return np.vstack([entry, arc])
    if kind in ("intersection_left", "intersection_right"):
        sign = 1.0 if kind == "intersection_left" else -1.0
        radius = 8.0 + 3.0 * draws[0]
        entry_x = np.arange(-45.0, TURN_ENTRY, 0.2)
        entry = np.column_stack([entry_x, np.zeros_like(entry_x)])
        theta = np.arange(0.0, math.pi / 2.0, 0.2 / radius)
        arc = np.column_stack([TURN_ENTRY + radius * np.sin(theta),
                               sign * radius * (1.0 - np.cos(theta))])
        exit_y = np.arange(radius, radius + 60.0, 0.2)
        exit_seg = np.column_stack([np.full_like(exit_y, TURN_ENTRY + radius), sign * exit_y])
        return np.vstack([entry, arc, exit_seg])
    if kind == "lane_change":
        xs = np.arange(-45.0, 115.0, 0.2)
        ys = LANE_OFFSET * _smoothstep((xs - 5.0) / 20.0)
        return np.column_stack([xs, ys])
    raise ValueError(f"unknown scene kind {kind!r}")


class _Route:
    """Arc-length parameterized centerline with headings."""

    def __init__(self, polyline: np.ndarray):
        self.xy = polyline
        seg = np.diff(polyline, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        origin_idx = int(np.linalg.norm(polyline, axis=1).argmin())
        self.s = cum - cum[origin_idx]
        headings = np.arctan2(seg[:, 1], seg[:, 0])
        self.heading = np.unwrap(np.concatenate([headings, headings[-1:]]))
        self.s_max = float(self.s[-1])

    def point(self, s):
        s = np.clip(np.asarray(s, dtype=np.float64), self.s[0], self.s[-1])
        return np.stack([np.interp(s, self.s, self.xy[:, 0]),
                         np.interp(s, self.s, self.xy[:, 1])], axis=-1)

    def heading_at(self, s):
        s = np.clip(np.asarray(s, dtype=np.float64), self.s[0], self.s[-1])
        return np.interp(s, self.s, self.heading)

    def offset_polyline(self, offset: float, s_values: np.ndarray) -> np.ndarray:
        pts = self.point(s_values)
        h = self.heading_at(s_values)
        normal = np.stack([-np.sin(h), np.cos(h)], axis=-1)
        return pts + offset * normal


def _speed_profile(kind: str, draws: np.ndarray):
    """Piecewise-linear speed breakpoints (t, v) covering [-2, 6+] seconds."""
    if kind == "straight":
        return [(-2.0, 10.0), (8.0, 10.0)]
    if kind == "curve":
        return [(-2.0, 8.5), (8.0, 8.5)]
    if kind == "lane_change":
        return [(-2.0, 9.0), (8.0, 9.0)]
    if kind == "stop":
        v0 = 7.5 + 1.0 * draws[1]
        t_stop = 1.7 + 0.4 * draws[2]
        return [(-2.0, v0), (0.0, v0), (t_stop, 0.0), (8.0, 0.0)]
    if kind in ("intersection_left", "intersection_right"):
        # constant speed through the turn keeps lateral acceleration bounded
        # (v^2/r <= 3.4 m/s^2) and the constant-speed proposal rule exact
        return [(-2.0, TURN_SPEED), (10.0, TURN_SPEED)]
    raise ValueError(f"unknown scene kind {kind!r}")


def _integrate_motion(route: _Route, profile, t_grid: np.ndarray):
    """Positions, headings, and speeds along the route for the given times."""
    ts = np.array([p[0] for p in profile])
    vs = np.array([p[1] for p in profile])
    speeds = np.interp(t_grid, ts, vs)
    # trapezoidal arc length with s(0) = 0
    zero_idx = int(np.argmin(np.abs(t_grid)))
    ds = 0.5 * (speeds[1:] + speeds[:-1]) * np.diff(t_grid)
    s = np.concatenate([[0.0], np.cumsum(ds)])
    s = s - s[zero_idx]
    return route.point(s), route.heading_at(s), speeds


def _agent_states(points: np.ndarray, headings: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    states = np.zeros((points.shape[0], 6))
    states[:, AX] = points[:, 0]
    states[:, AY] = points[:, 1]
    states[:, AVX] = speeds * np.cos(headings)
    states[:, AVY] = speeds * np.sin(headings)
    states[:, AHEAD] = headings
    states[:, AVALID] = 1.0
    return states


N_LANE_SEGMENTS = 24


def _lane_rows(points: np.ndarray, lane_type: float) -> np.ndarray:
    """Resample a polyline into N_LANE_SEGMENTS rows of (x0 y0 x1 y1 heading type)."""
    seg = np.diff(points, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(seg, axis=1))])
    s = np.linspace(0.0, cum[-1], N_LANE_SEGMENTS + 1)
    xs = np.interp(s, cum, points[:, 0])
    ys = np.interp(s, cum, points[:, 1])
    rows = np.zeros((N_LANE_SEGMENTS, 6))
    rows[:, LX0], rows[:, LY0] = xs[:-1], ys[:-1]
    rows[:, LX1], rows[:, LY1] = xs[1:], ys[1:]
    rows[:, LHEAD] = np.arctan2(ys[1:] - ys[:-1], xs[1:] - xs[:-1])
    rows[:, LTYPE] = lane_type
    return rows


def generate_scene(kind: str, seed: int) -> SceneContext:
    """Deterministic synthetic scene in the target frame.

    The target follows a kind-specific route with a continuous speed profile;
    a lead vehicle shares the route and a third agent travels an adjacent or
    crossing lane. ``extended_future`` always covers 2 * T_f timestamps.
    """
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")
    draws = rng.uniform(seed, rng.STREAM_SCENE * 256 + _KIND_CODE[kind], np.arange(16))
    route = _Route(_route_polyline(kind, draws))
    profile = _speed_profile(kind, draws)

    t_grid = np.arange(-(T_HISTORY - 1), 2 * T_FUTURE + 1) * DT
    pts, headings, speeds = _integrate_motion(route, profile, t_grid)
    now = T_HISTORY - 1
    target_states = _agent_states(pts, headings, speeds)

    # lead vehicle on the same route, constant speed
    gap = 15.0 + 10.0 * draws[4]
    v_lead = (0.85 + 0.1 * draws[5]) * max(speeds[now], 4.0)
    s_lead = gap + v_lead * t_grid
    lead_states = _agent_states(route.point(s_lead), route.heading_at(s_lead),
                                np.full_like(t_grid, v_lead))

    # third agent: oncoming in the adjacent lane, or crossing at intersections
    if kind in ("intersection_left", "intersection_right"):
        sign = 1.0 if kind == "intersection_left" else -1.0
        radius = 8.0 + 3.0 * draws[0]
        x_cross = TURN_ENTRY + radius
        y0 = -sign * (20.0 + 15.0 * draws[6])
        v_third = 6.0 + 3.0 * draws[7]
        third_pts = np.column_stack([np.full_like(t_grid, x_cross), y0 + sign * v_third * t_grid])
        third_heading = sign * math.pi / 2.0
    else:
        x0 = 28.0 + 14.0 * draws[6]
        v_third = 6.0 + 3.0 * draws[7]
        third_pts = np.column_stack([x0 - v_third * t_grid, np.full_like(t_grid, LANE_OFFSET)])
        third_heading = math.pi
    third_states = _agent_states(third_pts, np.full_like(t_grid, third_heading),
                                 np.full_like(t_grid, v_third))

    all_states = [target_states, lead_states, third_states]
    agents = np.stack([s[: now + 1] for s in all_states])
    agent_futures = np.stack(
        [s[now + 1: now + 1 + T_FUTURE, [AX, AY]].copy() for s in all_states])

    gt_future = pts[now + 1: now + 1 + T_FUTURE].copy()
    extended_future = pts[now + 1: now + 1 + 2 * T_FUTURE].copy()

    s_lane = np.linspace(-30.0, min(route.s_max, 90.0), 200)
    lanes = [_lane_rows(route.point(s_lane), LANE_TYPE_ROUTE)]
    if kind in ("intersection_left", "intersection_right"):
        sign = 1.0 if kind == "intersection_left" else -1.0
        radius = 8.0 + 3.0 * draws[0]
        through_x = np.arange(-30.0, 90.0, 1.0)
        lanes.append(_lane_rows(np.column_stack([through_x, np.zeros_like(through_x)]), 0.0))
        cross_y = np.arange(-40.0, 40.0, 1.0) * sign
        lanes.append(_lane_rows(np.column_stack(
            [np.full_like(cross_y, TURN_ENTRY + radius), cross_y]), 0.0))
    elif kind == "lane_change":
        xs = np.arange(-30.0, 90.0, 1.0)
        lanes.append(_lane_rows(np.column_stack([xs, np.zeros_like(xs)]), 0.0))
        lanes.append(_lane_rows(np.column_stack([xs, np.full_like(xs, LANE_OFFSET)]), 0.0))
    else:
        lanes.append(_lane_rows(route.offset_polyline(LANE_OFFSET, s_lane), 0.0))
        lanes.append(_lane_rows(route.offset_polyline(-LANE_OFFSET, s_lane), 0.0))

    return SceneContext(
        agents=agents,
        map_lanes=np.stack(lanes),
        target_index=0,
        gt_future=gt_future,
        extended_future=extended_future,
        agent_futures=agent_futures,
        scenario_kind=kind,
        dt=DT,
    )


# ---------------------------------------------------------------------------
# Feature rasterization
# ---------------------------------------------------------------------------

def rasterize_features(scene: SceneContext, spec: GridSpec) -> np.ndarray:
    """Per-cell context features (rows, cols, 6) for a normalized scene.

    Channels: on-road flag, signed distance to the nearest centerline (clamped
    to +-8 m), heading-alignment cosine of that centerline, other-agent
    occupancy, longitudinal progress along the target's route, and distance to
    the anchor cell.
    """
    x0, y0, heading, _ = target_pose(scene)
    if max(abs(x0), abs(y0), abs(heading)) > 1e-9:
        raise ValueError("scene must be normalized before rasterization")

    centres = cell_to_world(np.stack(np.indices((spec.rows, spec.cols)), axis=-1), spec)
    p = centres.reshape(-1, 2)  # (n, 2)

    segs = scene.map_lanes.reshape(-1, 6)
    a = segs[:, [LX0, LY0]]
    d = segs[:, [LX1, LY1]] - a
    seg_len2 = np.maximum((d ** 2).sum(axis=1), 1e-12)
    # projection parameter of every cell onto every segment
    t = ((p[:, None, :] - a[None]) * d[None]).sum(axis=2) / seg_len2[None]
    t = np.clip(t, 0.0, 1.0)
    closest = a[None] + t[..., None] * d[None]
    diff = p[:, None, :] - closest
    dist = np.sqrt((diff ** 2).sum(axis=2))
    # side of the centerline: positive to the segment's left
    side = d[None, :, 0] * diff[..., 1] - d[None, :, 1] * diff[..., 0]

    nearest = dist.argmin(axis=1)
    n_idx = np.arange(p.shape[0])
    nearest_dist = dist[n_idx, nearest]
    signed = np.sign(side[n_idx, nearest]) * nearest_dist
    signed = np.clip(signed, -MAX_CENTERLINE_DIST, MAX_CENTERLINE_DIST)

    features = np.zeros((spec.rows, spec.cols, FEATURE_COUNT))
    shape = (spec.rows, spec.cols)
    features[..., F_ON_ROAD] = (nearest_dist <= LANE_HALF_WIDTH).astype(np.float64).reshape(shape)
    features[..., F_CENTER_DIST] = signed.reshape(shape)
    features[..., F_HEADING] = np.cos(segs[nearest, LHEAD]).reshape(shape)

    route_mask = segs[:, LTYPE] == LANE_TYPE_ROUTE
    if route_mask.any():
        r_ids = np.nonzero(route_mask)[0]
        r_len = np.sqrt(seg_len2[r_ids])
        r_cum = np.concatenate([[0.0], np.cumsum(r_len)])[:-1]
        r_near = dist[:, r_ids].argmin(axis=1)
        progress = r_cum[r_near] + t[n_idx, r_ids[r_near]] * r_len[r_near]
        features[..., F_PROGRESS] = progress.reshape(shape)

    for i in range(scene.agents.shape[0]):
        if i == scene.target_index:
            continue
        states = scene.agents[i]
        valid = np.nonzero(states[:, AVALID] > 0.5)[0]
        if valid.size == 0:
            continue
        cell = world_to_cell(states[valid[-1], [AX, AY]], spec)
        if cell is not None:
            features[cell.row, cell.col, F_OCCUPANCY] = 1.0

    features[..., F_ANCHOR_DIST] = np.hypot(centres[..., 0], centres[..., 1])
    return features


# ---------------------------------------------------------------------------
# Serialization (UTF-8 JSON, full float precision)
# ---------------------------------------------------------------------------

SCENE_FORMAT_VERSION = 1


def scene_to_dict(scene: SceneContext) -> dict:
    payload = {
        "version": SCENE_FORMAT_VERSION,
        "kind": scene.scenario_kind,
        "dt": scene.dt,
        "target_index": scene.target_index,
        "agents": scene.agents.tolist(),
        "lanes": scene.map_lanes.tolist(),
        "gt_future": scene.gt_future.tolist(),
    }
    if scene.extended_future is not None:
        payload["extended_future"] = scene.extended_future.tolist()
    if scene.agent_futures is not None:
        payload["agent_futures"] = scene.agent_futures.tolist()
    if scene.to_world is not None:
        payload["to_world"] = list(scene.to_world)
    return payload


def save_scene(path, scene: SceneContext) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(scene_to_dict(scene), sort_keys=True) + "\n")


# every key scene_to_dict writes; scene_from_dict rejects any other
SCENE_KEYS = frozenset({"version", "kind", "dt", "target_index", "agents", "lanes",
                        "gt_future", "extended_future", "agent_futures", "to_world"})


def _finite_array(value, name: str, source: str) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"{source}: {name}: {exc}") from exc
    # strings, booleans, null, objects, ragged lists; numpy reads a true or false
    # among numbers as 1 or 0, so only the parsed values show it
    if arr.dtype.kind not in "iuf" or any(
            type(v) is bool for v in np.asarray(value, dtype=object).flat):
        raise SceneFormatError(f"{source}: {name} must hold numbers only, got {value!r:.40}")
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise SceneFormatError(f"{source}: {name} contains non-finite values")
    return arr


def scene_from_dict(payload: dict, source: str = "<dict>") -> SceneContext:
    if not isinstance(payload, dict):
        raise SceneFormatError(f"{source}: a scene must be a JSON object, got {payload!r:.40}")
    version = payload.get("version")
    if type(version) is not int or version != SCENE_FORMAT_VERSION:
        raise SceneFormatError(f"{source}: unsupported scene version {version!r}")
    unknown = sorted(set(payload) - SCENE_KEYS)
    if unknown:
        raise SceneFormatError(f"{source}: unknown keys {unknown}")
    try:
        agents, lanes, gt_future = (_finite_array(payload[key], key, source)
                                    for key in ("agents", "lanes", "gt_future"))
    except KeyError as exc:
        raise SceneFormatError(f"{source}: missing {exc}") from exc
    if agents.size == 0:
        raise SceneFormatError(f"{source}: no agents")
    if agents.ndim != 3 or agents.shape[2] != 6:
        raise SceneFormatError(f"{source}: agents must be N_a x T_h x 6, got {agents.shape}")
    if lanes.ndim != 3 or lanes.shape[2] != 6:
        raise SceneFormatError(f"{source}: lanes must be N_m x N_s x 6, got {lanes.shape}")
    if gt_future.ndim != 2 or gt_future.shape[1] != 2:
        raise SceneFormatError(f"{source}: gt_future must be T_f x 2, got {gt_future.shape}")
    target_index = payload.get("target_index", 0)
    if type(target_index) is not int or not 0 <= target_index < agents.shape[0]:
        raise SceneFormatError(f"{source}: target_index {target_index!r} is not an agent index")
    dt = _finite_array(payload.get("dt", DT), "dt", source)
    if dt.ndim != 0 or dt <= 0.0:
        raise SceneFormatError(f"{source}: dt must be a positive number, got {dt.tolist()!r}")
    extended = payload.get("extended_future")
    if extended is not None:
        extended = _finite_array(extended, "extended_future", source)
        if extended.ndim != 2 or extended.shape[1] != 2:
            raise SceneFormatError(f"{source}: extended_future must be T_ext x 2, got {extended.shape}")
        if extended.shape[0] < gt_future.shape[0]:
            raise SceneFormatError(f"{source}: extended_future shorter than gt_future")
    agent_futures = payload.get("agent_futures")
    if agent_futures is not None:
        agent_futures = _finite_array(agent_futures, "agent_futures", source)
        if agent_futures.ndim != 3 or agent_futures.shape[2] != 2:
            raise SceneFormatError(
                f"{source}: agent_futures must be N_a x T_f x 2, got {agent_futures.shape}")
    to_world = payload.get("to_world")
    if to_world is not None:
        to_world = _finite_array(to_world, "to_world", source)
        if to_world.shape != (3,):
            raise SceneFormatError(f"{source}: to_world must be (dx, dy, angle), got {to_world.shape}")
    return SceneContext(
        agents=agents,
        map_lanes=lanes,
        target_index=target_index,
        gt_future=gt_future,
        extended_future=extended,
        agent_futures=agent_futures,
        scenario_kind=str(payload.get("kind", "unknown")),
        dt=float(dt),
        to_world=None if to_world is None else tuple(float(v) for v in to_world),
    )


def load_scene(path) -> SceneContext:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return scene_from_dict(payload, source=str(path))
