"""End-to-end forecasting pipeline.

Normalizes a scene, rasterizes context features, trains the per-scene reward
(intention reasoning), rolls out the soft-optimal policy, and decodes the
rollouts into a K-mode forecast. The no-reasoning baseline replaces the
learned policy with a heading-biased straight-rollout policy and a zero
reward.

Every scene runs end to end on the box ``anchor ± horizon`` (grid.reachable_box),
which predict_scene cuts once: the raster, the fit, the final plan, the
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

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import irl, metrics, occupancy, rng, rollout, scene as scene_mod
from .config import RunConfig
from .grid import ACTIONS, N_ACTIONS, GridSpec, reachable_box, valid_action_mask
from .irl import Policy, RewardMapParams, TrainDiagnostics, Window

STRAIGHT_KAPPA = 3.0

# fixed per-channel scaling applied before reward learning; meter-scale
# channels are brought to unit order so the map's optimization is well
# conditioned (values are constants, never data-dependent)
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


def select_demo_points(scene: scene_mod.SceneContext, cfg: RunConfig) -> np.ndarray:
    """Supervision horizon: first factor * T_f points of the (extended) future."""
    n = int(round(cfg.demo_horizon_factor * cfg.t_future))
    if n <= scene.gt_future.shape[0]:
        return scene.gt_future[:n]
    if scene.extended_future is None or scene.extended_future.shape[0] < n:
        raise ValueError(
            f"demo_horizon_factor {cfg.demo_horizon_factor} needs {n} future points; "
            f"extended future has {0 if scene.extended_future is None else scene.extended_future.shape[0]}")
    return scene.extended_future[:n]


def build_demos(scene: scene_mod.SceneContext, cfg: RunConfig, spec: GridSpec) -> list:
    """Expert demonstrations for one scene.

    The forecast-horizon trajectory always supervises with its timing intact;
    a demo_horizon_factor above 1 adds the longer route as a spatial path
    demonstration, disambiguating intent beyond the scored window.
    """
    demos = [irl.build_demonstration(scene.gt_future[: cfg.t_future], spec, cfg.horizon)]
    if cfg.demo_horizon_factor > 1.0:
        demos.append(irl.build_path_demonstration(
            select_demo_points(scene, cfg), spec, cfg.horizon))
    return demos


def straight_rollout_policy(spec: GridSpec, horizon: int) -> Policy:
    """Stationary heading-biased policy for the no-reasoning baseline.

    Action weights follow exp(STRAIGHT_KAPPA * cos(angle to +x)); STAY gets the
    neutral weight. Masked off-grid actions are renormalized away. Each step's
    table is its window's view of one read-only table over the whole grid.
    """
    logits = np.empty(N_ACTIONS)
    for a, (dr, dc) in enumerate(ACTIONS):
        if dr == 0 and dc == 0:
            logits[a] = 0.0
        else:
            logits[a] = STRAIGHT_KAPPA * dr / math.hypot(dr, dc)
    valid = valid_action_mask(spec)
    weights = np.where(valid, np.exp(logits)[None, None, :], 0.0)
    probs = weights / weights.sum(axis=-1, keepdims=True)
    probs.flags.writeable = False
    return Policy(spec, [probs[win] for win in irl.reach_windows(spec, horizon)[:-1]])


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
        features = scene_mod.rasterize_features(norm, box) * FEATURE_SCALE
        # built on the full grid, where a quantised point beyond the box only
        # truncates the demo at horizon+1 states; every visit lies in the box
        expert = irl.expert_visitation(build_demos(norm, cfg, spec), spec,
                                       cfg.horizon)[window].copy()
        params, diagnostics = irl.train_irl(features, expert, box, cfg)
        reward = irl.reward_forward(features, params)
        _, policy = irl.soft_value_iteration(reward, box, cfg.horizon)
    else:
        reward = np.zeros((box.rows, box.cols))
        policy = straight_rollout_policy(box, cfg.horizon)

    batch = rollout.sample_rollouts(policy, reward, cfg.rollouts,
                                    rng.derive_seed(cfg.seed, stream_key))
    if reasoning:
        batch = rollout.gather_path_features(batch, features)
    proposals = np.stack([
        rollout.path_to_trajectory(batch.cells[i], box, cfg.t_future, speed, norm.dt)
        for i in range(cfg.rollouts)
    ])
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
        "nll_last": diag.nll_history[-1] if diag else None,
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
    features = scene_mod.rasterize_features(result.scene, result.spec) * FEATURE_SCALE
    return irl.reward_forward(features, result.params)


def score_prediction(result: PredictionResult) -> metrics.SceneMetrics:
    gt = result.scene.gt_future[: result.forecast.trajectories.shape[1]]
    return metrics.score_forecast(result.forecast.trajectories, result.forecast.probs, gt)
