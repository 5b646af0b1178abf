"""End-to-end forecasting pipeline.

Normalizes a scene, rasterizes context features, trains the per-scene reward
(intention reasoning), rolls out the soft-optimal policy, and decodes the
rollouts into a K-mode forecast. The no-reasoning baseline replaces the
learned policy with a heading-biased straight-rollout policy and a zero
reward.

Every scene runs end to end on the box ``anchor ± horizon`` (grid.reachable_box),
which predict_scene cuts once: the raster, the fit and its plan, the
rollouts and the occupancy pass all run there. No cell outside it can be
reached within the horizon, and the box keeps the world frame. The baseline's
straight policy is the full grid's bit for bit wherever the target can be
before the last step: such a cell lies within horizon - 1 of the anchor, so
the box masks the same moves there as the grid. For reasoning, the raster is
the full raster's window bit for bit, and so is the expert's mu_hat, counted
on the full grid from demos built there and cut to the box. The fit is the
full grid's in exact arithmetic: the target never leaves the box, so the NLL
reads only box cells and the reward gradient E[mu] - mu_hat is exactly 0 off it.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import irl, metrics, occupancy, rng, rollout, scene as scene_mod
from .config import RunConfig
from .grid import ACTIONS, GridSpec, reachable_box
from .irl import Policy, RewardMapParams, TrainDiagnostics, Window

STRAIGHT_KAPPA = 3.0

FEATURE_SCALE = np.array([1.0, 1.0 / 8.0, 1.0, 1.0, 1.0 / 50.0, 1.0 / 50.0])


@dataclass
class PredictionResult:
    """A scene's forecast and what made it.

    ``reward`` and ``policy`` live on the reachable box ``policy.spec``, cut
    out of the full grid ``spec`` by ``window``.
    """

    forecast: rollout.Forecast
    reward: np.ndarray
    policy: Policy
    spec: GridSpec
    window: Window
    params: RewardMapParams | None  # the fitted reward map, None without reasoning
    scene: scene_mod.SceneContext  # normalized
    reasoning: bool
    diagnostics: TrainDiagnostics | None
    clusters: rollout.ClusterResult
    stream_key: int


def scene_stream_key(payload: bytes) -> int:
    """Content-derived sub-seed so paired runs share randomness per scene."""
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def select_demo_points(scene: scene_mod.SceneContext, t_future: int,
                       factor: float = 1.0) -> np.ndarray:
    """The first factor * t_future points of the future, or of the extended
    future when the future is shorter; ValueError when neither holds them."""
    n = int(round(factor * t_future))
    if n <= scene.gt_future.shape[0]:
        return scene.gt_future[:n]
    n_ext = 0 if scene.extended_future is None else scene.extended_future.shape[0]
    if n_ext < n:
        raise ValueError(f"demo horizon factor {factor} needs {n} future points; gt_future "
                         f"has {scene.gt_future.shape[0]} and extended_future {n_ext}")
    return scene.extended_future[:n]


def build_demos(scene: scene_mod.SceneContext, cfg: RunConfig, spec: GridSpec) -> list:
    """Expert demonstrations for one scene.

    The forecast-horizon trajectory always supervises with its timing intact;
    a demo_horizon_factor above 1 adds the longer route as a spatial path
    demonstration, disambiguating intent beyond the scored window.
    """
    demos = [irl.build_demonstration(select_demo_points(scene, cfg.t_future), spec, cfg.horizon)]
    if cfg.demo_horizon_factor > 1.0:
        points = select_demo_points(scene, cfg.t_future, cfg.demo_horizon_factor)
        demos.append(irl.build_path_demonstration(points, spec, cfg.horizon))
    return demos


def scaled_features(scene: scene_mod.SceneContext, spec: GridSpec) -> np.ndarray:
    """The raster the reward map reads: rasterize_features times FEATURE_SCALE, fixed
    per-channel scales that bring metre-scale channels to unit order, so the fit is
    well conditioned (constants, never data-dependent)."""
    return scene_mod.rasterize_features(scene, spec) * FEATURE_SCALE


@functools.lru_cache(maxsize=8)
def straight_rollout_policy(spec: GridSpec, horizon: int) -> Policy:
    """Stationary heading-biased policy for the no-reasoning baseline.

    Action weights k_a = exp(STRAIGHT_KAPPA * cos(angle to +x)); STAY gets the
    neutral weight. The successor weight is 1 on the grid, so off-grid actions
    are renormalized away (Policy.on_grid). A pure function of (spec, horizon),
    so it is memoised: every call with the same pair returns the same Policy,
    whose arrays are read-only.
    """
    logits = [STRAIGHT_KAPPA * dr / math.hypot(dr, dc) if dr or dc else 0.0 for dr, dc in ACTIONS]
    return Policy.on_grid(spec, horizon, np.exp(logits).reshape(3, 3))


def predict_scene(raw_scene: scene_mod.SceneContext, cfg: RunConfig,
                  reasoning: bool = True, stream_key: int = 0) -> PredictionResult:
    """Run the full per-scene pipeline and return the K-mode forecast."""
    cfg.validate()
    spec = cfg.grid_spec()
    norm = scene_mod.normalize_to_target(raw_scene)
    _, _, _, speed = scene_mod.target_pose(norm)
    diagnostics = params = None
    box, window = reachable_box(spec, cfg.horizon)
    if reasoning:
        features = scaled_features(norm, box)
        # built on the full grid, where a quantised point beyond the box only
        # truncates the demo at horizon+1 states; every visit lies in the box
        expert = irl.expert_visitation(build_demos(norm, cfg, spec), spec,
                                       cfg.horizon)[window].copy()
        params, diagnostics, reward, policy = irl.train_irl(features, expert, box, cfg)
    else:
        reward = np.zeros((box.rows, box.cols))
        policy = straight_rollout_policy(box, cfg.horizon)

    batch = rollout.sample_rollouts(policy, reward, cfg.rollouts,
                                    rng.derive_seed(cfg.seed, stream_key))
    if reasoning:
        batch = rollout.gather_path_features(batch, features)
    points, arc = rollout.path_polylines(batch.cells, box)
    targets = np.arange(1, cfg.t_future + 1) * speed * norm.dt
    proposals = np.stack([rollout.path_to_trajectory(points[i], arc[i], targets)
                          for i in range(cfg.rollouts)])
    clusters = rollout.cluster_proposals(proposals, cfg.modes,
                                         rng.derive_seed(cfg.seed, stream_key, 1))
    trajectories = clusters.anchors + rollout.refine_offsets(clusters.anchors,
                                                             cfg.smooth_weight)
    probs = rollout.score_modes(clusters.membership, batch.path_rewards, cfg.modes,
                                cfg.temperature)
    forecast = rollout.Forecast(
        trajectories=trajectories,
        anchors=clusters.anchors,
        # re-derived so trajectories - anchors == offsets holds bitwise
        offsets=trajectories - clusters.anchors,
        probs=probs,
        proposals=proposals,
    )
    return PredictionResult(forecast=forecast, reward=reward, policy=policy, spec=spec,
                            window=window, params=params,
                            scene=norm, reasoning=reasoning, diagnostics=diagnostics,
                            clusters=clusters, stream_key=stream_key)


def run_record(result: PredictionResult) -> dict:
    """What a prediction did, for ``<stem>.run.json``: IRL convergence (None
    without reasoning), k-means iterations and final inertia, the stream key.
    Holds no timings, so same-seed reruns write the same bytes."""
    diag = result.diagnostics
    return {
        "reasoning": result.reasoning,
        "irl_iterations": diag.iterations if diag else None,
        "irl_converged": diag.converged if diag else None,
        "nll_first": diag.nll_history[0] if diag else None,
        "nll_last": diag.nll_final if diag else None,
        "grad_inf": diag.final_grad_inf if diag else None,
        "kmeans_iterations": result.clusters.n_iter,
        "kmeans_inertia": result.clusters.inertia_history[-1],
        "stream_key": result.stream_key,
    }


def predicted_occupancy(result: PredictionResult, cfg: RunConfig) -> np.ndarray:
    """The target's (rows, cols, T_f) occupancy on the full grid: the box's,
    embedded in zeros, which are exact since D_t is 0 off ``anchor ± t``."""
    out = np.zeros((result.spec.rows, result.spec.cols, cfg.t_future))
    out[result.window] = occupancy.predict_occupancy(result.policy, cfg.t_future)
    return out


def grid_reward(result: PredictionResult) -> np.ndarray:
    """The reward map over the full grid, for figures: the fitted map applied
    to a full-grid raster (the forecast itself reads only the box)."""
    if result.params is None:
        return np.zeros((result.spec.rows, result.spec.cols))
    return irl.reward_forward(scaled_features(result.scene, result.spec), result.params)


def score_prediction(result: PredictionResult) -> metrics.SceneMetrics:
    gt = result.scene.gt_future[: result.forecast.trajectories.shape[1]]
    return metrics.score_forecast(result.forecast.trajectories, result.forecast.probs, gt)
