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


def normalize_to_target(scene: SceneContext) -> SceneContext:
    """Rigidly map the scene so the target's current pose is origin, heading +x.

    Idempotent; the inverse transform back to the incoming frame is composed
    into ``to_world`` so raw coordinates stay recoverable.
    """
    x0, y0, heading, _ = target_pose(scene)
    inverse = (x0, y0, heading)  # normalized -> incoming frame
    if max(abs(x0), abs(y0), abs(heading)) < 1e-12:
        return replace(scene, to_world=scene.to_world or (0.0, 0.0, 0.0))
    # forward transform: p' = R(-heading) (p - p0); velocities and headings turn by -heading
    c, s = math.cos(-heading), math.sin(-heading)

    def tf_points(pts):
        out = np.empty_like(pts)
        out[..., 0] = c * (pts[..., 0] - x0) - s * (pts[..., 1] - y0)
        out[..., 1] = s * (pts[..., 0] - x0) + c * (pts[..., 1] - y0)
        return out

    agents = scene.agents.copy()
    agents[..., [AX, AY]] = tf_points(scene.agents[..., [AX, AY]])
    vx, vy = scene.agents[..., AVX], scene.agents[..., AVY]
    agents[..., AVX] = c * vx - s * vy
    agents[..., AVY] = s * vx + c * vy
    agents[..., AHEAD] = _wrap_angle(scene.agents[..., AHEAD] - heading)
    lanes = scene.map_lanes.copy()
    lanes[..., [LX0, LY0]] = tf_points(scene.map_lanes[..., [LX0, LY0]])
    lanes[..., [LX1, LY1]] = tf_points(scene.map_lanes[..., [LX1, LY1]])
    lanes[..., LHEAD] = _wrap_angle(scene.map_lanes[..., LHEAD] - heading)
    return replace(
        scene,
        agents=agents,
        map_lanes=lanes,
        gt_future=tf_points(scene.gt_future),
        extended_future=None if scene.extended_future is None else tf_points(scene.extended_future),
        agent_futures=None if scene.agent_futures is None else tf_points(scene.agent_futures),
        to_world=inverse if scene.to_world is None else _compose(scene.to_world, inverse),
    )


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

# every scene's timestamps, the last observed one (t = 0) at index T_HISTORY - 1
_TIMES = np.arange(-(T_HISTORY - 1), 2 * T_FUTURE + 1) * DT
# x samples of the straight routes (0.2 m apart) and of the straight side lanes
_ROUTE_X = np.arange(-45.0, 115.0, 0.2)
_LANE_X = np.arange(-30.0, 90.0, 1.0)


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _along_x(xs: np.ndarray, y: float) -> np.ndarray:
    return np.column_stack([xs, np.full_like(xs, y)])


def _bend(x_turn: float, radius: float, sign: float, sweep: float) -> np.ndarray:
    """Straight along +x from x = -45 to x_turn, then an arc of the radius
    turning left (sign 1) or right (sign -1) through sweep radians."""
    theta = np.arange(0.0, sweep, 0.2 / radius)
    arc = np.column_stack([x_turn + radius * np.sin(theta),
                           sign * radius * (1.0 - np.cos(theta))])
    return np.vstack([_along_x(np.arange(-45.0, x_turn, 0.2), 0.0), arc])


def _kind_parts(kind: str, draws: np.ndarray):
    """Everything that sets one scene kind apart, each kind in one branch:
    - its route, a dense centerline through the origin with entry heading +x;
    - its speed breakpoints (t, v), covering [-2, 6+] seconds;
    - its third agent, as (position at t = 0, constant velocity);
    - its side lanes as polylines, or None for the route's neighbours at
      +-LANE_OFFSET."""
    if kind in ("intersection_left", "intersection_right"):
        # a turn onto a crossing road, where the third agent drives; the
        # constant speed through the turn keeps lateral acceleration bounded
        # (v^2/r <= 3.4 m/s^2) and the constant-speed proposal rule exact
        sign = 1.0 if kind == "intersection_left" else -1.0
        radius = 8.0 + 3.0 * draws[0]
        x_cross = TURN_ENTRY + radius
        exit_y = np.arange(radius, radius + 60.0, 0.2)
        cross_y = np.arange(-40.0, 40.0, 1.0) * sign
        route = np.vstack([_bend(TURN_ENTRY, radius, sign, math.pi / 2.0),
                           np.column_stack([np.full_like(exit_y, x_cross), sign * exit_y])])
        crossing = ((x_cross, -sign * (20.0 + 15.0 * draws[6])),
                    (0.0, sign * (6.0 + 3.0 * draws[7])))
        sides = [_along_x(_LANE_X, 0.0),
                 np.column_stack([np.full_like(cross_y, x_cross), cross_y])]
        return route, [(-2.0, TURN_SPEED), (10.0, TURN_SPEED)], crossing, sides
    # on every other kind the third agent comes the other way in the left lane
    oncoming = ((28.0 + 14.0 * draws[6], LANE_OFFSET), (-(6.0 + 3.0 * draws[7]), 0.0))
    if kind == "straight":
        return _along_x(_ROUTE_X, 0.0), [(-2.0, 10.0), (8.0, 10.0)], oncoming, None
    if kind == "stop":
        v0 = 7.5 + 1.0 * draws[1]
        t_stop = 1.7 + 0.4 * draws[2]
        return (_along_x(_ROUTE_X, 0.0), [(-2.0, v0), (0.0, v0), (t_stop, 0.0), (8.0, 0.0)],
                oncoming, None)
    if kind == "curve":
        # the bend begins near the forecast edge so long-horizon supervision
        # reveals curvature the scored window only hints at
        radius = 25.0 + 20.0 * draws[0]
        route = _bend(CURVE_ENTRY, radius, 1.0 if draws[1] < 0.5 else -1.0,
                      min(100.0 / radius, 1.9))
        return route, [(-2.0, 8.5), (8.0, 8.5)], oncoming, None
    # lane_change (generate_scene rejects an unknown kind)
    route = np.column_stack([_ROUTE_X, LANE_OFFSET * _smoothstep((_ROUTE_X - 5.0) / 20.0)])
    sides = [_along_x(_LANE_X, 0.0), _along_x(_LANE_X, LANE_OFFSET)]
    return route, [(-2.0, 9.0), (8.0, 9.0)], oncoming, sides


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

    The target follows a kind-specific route with a continuous speed profile
    (_kind_parts); a lead vehicle shares the route and a third agent travels
    an adjacent or crossing lane. ``extended_future`` always covers 2 * T_f
    timestamps.
    """
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")
    draws = rng.uniform(seed, rng.STREAM_SCENE * 256 + _KIND_CODE[kind], np.arange(16))
    polyline, profile, (start, velocity), sides = _kind_parts(kind, draws)
    route = _Route(polyline)
    now = T_HISTORY - 1

    # the target: speeds from the breakpoints, trapezoidal arc length with s(0) = 0
    ts, vs = np.array(profile).T
    speeds = np.interp(_TIMES, ts, vs)
    s = np.concatenate([[0.0], np.cumsum(0.5 * (speeds[1:] + speeds[:-1]) * np.diff(_TIMES))])
    s = s - s[now]
    pts = route.point(s)
    target_states = _agent_states(pts, route.heading_at(s), speeds)

    # lead vehicle on the same route, constant speed
    gap = 15.0 + 10.0 * draws[4]
    v_lead = (0.85 + 0.1 * draws[5]) * max(speeds[now], 4.0)
    s_lead = gap + v_lead * _TIMES
    lead_states = _agent_states(route.point(s_lead), route.heading_at(s_lead),
                                np.full_like(_TIMES, v_lead))

    # third agent: a straight line at constant velocity
    third_states = _agent_states(np.add(start, np.multiply.outer(_TIMES, velocity)),
                                 np.full_like(_TIMES, math.atan2(velocity[1], velocity[0])),
                                 np.full_like(_TIMES, math.hypot(*velocity)))

    all_states = [target_states, lead_states, third_states]
    agents = np.stack([s[: now + 1] for s in all_states])
    agent_futures = np.stack(
        [s[now + 1: now + 1 + T_FUTURE, [AX, AY]].copy() for s in all_states])

    s_lane = np.linspace(-30.0, min(route.s_max, 90.0), 200)
    if sides is None:
        sides = [route.offset_polyline(LANE_OFFSET, s_lane),
                 route.offset_polyline(-LANE_OFFSET, s_lane)]
    lanes = [_lane_rows(route.point(s_lane), LANE_TYPE_ROUTE)]
    lanes += [_lane_rows(side, 0.0) for side in sides]

    return SceneContext(
        agents=agents,
        map_lanes=np.stack(lanes),
        target_index=0,
        gt_future=pts[now + 1: now + 1 + T_FUTURE].copy(),
        extended_future=pts[now + 1: now + 1 + 2 * T_FUTURE].copy(),
        agent_futures=agent_futures,
        scenario_kind=kind,
        dt=DT,
    )


# ---------------------------------------------------------------------------
# Feature rasterization
# ---------------------------------------------------------------------------

# bytes of one (cells, segments) float64 array of the nearest-segment search;
# rasterize_features searches blocks of cells that fit it, a few such arrays
# at a time, so its memory does not grow with the grid (every cell is
# independent, so the raster is the same bits for any block size)
RASTER_BLOCK_BYTES = 1 << 19


def _nearest_centerline(px: np.ndarray, py: np.ndarray, segs: np.ndarray):
    """For the cell centres (px, py), two (n,) arrays: the nearest lane segment,
    the distance to it, that distance signed by the side of the segment the
    cell lies on (positive to its left, clamped to +-MAX_CENTERLINE_DIST) and
    the progress along the route at the nearest route segment (0 without one).
    Works per coordinate on (n, segments) maps."""
    ax, ay = segs[:, LX0], segs[:, LY0]
    dx, dy = segs[:, LX1] - ax, segs[:, LY1] - ay
    seg_len2 = np.maximum(dx * dx + dy * dy, 1e-12)
    # projection parameter of every cell onto every segment
    t = (px[:, None] - ax) * dx
    t += (py[:, None] - ay) * dy
    t /= seg_len2
    np.clip(t, 0.0, 1.0, out=t)
    # from the closest point of each segment to the cell
    ex = t * dx
    ex += ax
    np.subtract(px[:, None], ex, out=ex)
    ey = t * dy
    ey += ay
    np.subtract(py[:, None], ey, out=ey)
    dist = ex * ex
    dist += ey * ey
    np.sqrt(dist, out=dist)

    n_idx = np.arange(px.shape[0])
    nearest = dist.argmin(axis=1)
    nearest_dist = dist[n_idx, nearest]
    side = dx[nearest] * ey[n_idx, nearest] - dy[nearest] * ex[n_idx, nearest]
    signed = np.clip(np.sign(side) * nearest_dist, -MAX_CENTERLINE_DIST, MAX_CENTERLINE_DIST)

    progress = np.zeros(px.shape[0])
    r_ids = np.nonzero(segs[:, LTYPE] == LANE_TYPE_ROUTE)[0]
    if r_ids.size:
        r_len = np.sqrt(seg_len2[r_ids])
        r_cum = np.concatenate([[0.0], np.cumsum(r_len)])[:-1]
        r_near = dist[:, r_ids].argmin(axis=1)
        progress = r_cum[r_near] + t[n_idx, r_ids[r_near]] * r_len[r_near]
    return nearest, nearest_dist, signed, progress


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
    px, py = centres[..., 0].ravel(), centres[..., 1].ravel()

    segs = scene.map_lanes.reshape(-1, 6)
    step = max(1, RASTER_BLOCK_BYTES // (8 * segs.shape[0]))
    blocks = [_nearest_centerline(px[start:start + step], py[start:start + step], segs)
              for start in range(0, px.shape[0], step)]
    nearest, nearest_dist, signed, progress = (np.concatenate(part) for part in zip(*blocks))

    features = np.zeros((spec.rows, spec.cols, FEATURE_COUNT))
    shape = (spec.rows, spec.cols)
    features[..., F_ON_ROAD] = (nearest_dist <= LANE_HALF_WIDTH).astype(np.float64).reshape(shape)
    features[..., F_CENTER_DIST] = signed.reshape(shape)
    features[..., F_HEADING] = np.cos(segs[nearest, LHEAD]).reshape(shape)
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


# the largest magnitude scene_from_dict admits in any array: UTM-sized
# coordinates fit, and the rasterizer's squared distances stay far from overflow
MAX_SCENE_MAGNITUDE = 1e9

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
    # one reduction for both checks: a NaN or an infinity makes the peak non-finite
    peak = float(np.abs(arr).max(initial=0.0))
    if not math.isfinite(peak):
        raise SceneFormatError(f"{source}: {name} contains non-finite values")
    if peak > MAX_SCENE_MAGNITUDE:
        raise SceneFormatError(f"{source}: {name} holds a value of magnitude {peak}, "
                               f"above MAX_SCENE_MAGNITUDE = {MAX_SCENE_MAGNITUDE:g}")
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
        expected = (agents.shape[0], gt_future.shape[0], 2)
        if agent_futures.shape != expected:
            raise SceneFormatError(f"{source}: agent_futures must be N_a x T_f x 2 = "
                                   f"{expected}, got {agent_futures.shape}")
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
