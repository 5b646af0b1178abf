"""End-to-end forecasting pipeline.

Normalizes a scene, rasterizes context features, trains the per-scene reward
(intention reasoning), rolls out the soft-optimal policy, and decodes the
rollouts into a K-mode forecast. The no-reasoning baseline replaces the
learned policy with a heading-biased straight-rollout policy and a zero
reward.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import irl, metrics, occupancy, rng, rollout, scene as scene_mod
from .config import RunConfig
from .grid import ACTIONS, N_ACTIONS, GridSpec, valid_action_mask
from .irl import Policy, TrainConfig, TrainDiagnostics

STRAIGHT_KAPPA = 3.0

# fixed per-channel scaling applied before reward learning; meter-scale
# channels are brought to unit order so the map's optimization is well
# conditioned (values are constants, never data-dependent)
FEATURE_SCALE = np.array([1.0, 1.0 / 8.0, 1.0, 1.0, 1.0 / 50.0, 1.0 / 50.0])


@dataclass
class PredictionResult:
    forecast: rollout.Forecast
    reward: np.ndarray
    policy: Policy
    spec: GridSpec
    scene: scene_mod.SceneContext  # normalized
    reasoning: bool
    diagnostics: TrainDiagnostics | None


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


def straight_rollout_policy(spec: GridSpec, kappa: float = STRAIGHT_KAPPA) -> Policy:
    """Stationary heading-biased policy for the no-reasoning baseline.

    Action weights follow exp(kappa * cos(angle to +x)); STAY gets the neutral
    weight. Masked off-grid actions are renormalized away. The table is built
    once and returned for every step.
    """
    logits = np.empty(N_ACTIONS)
    for a, (dr, dc) in enumerate(ACTIONS):
        if dr == 0 and dc == 0:
            logits[a] = 0.0
        else:
            logits[a] = kappa * dr / math.hypot(dr, dc)
    valid = valid_action_mask(spec)
    weights = np.where(valid, np.exp(logits)[None, None, :], 0.0)
    probs = weights / weights.sum(axis=-1, keepdims=True)
    return lambda t: probs


def train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(mode=cfg.reward_mode, hidden=cfg.hidden, optimizer=cfg.optimizer,
                       lr=cfg.lr, max_iters=cfg.max_iters, tol=cfg.tol,
                       init_seed=cfg.seed)


def predict_scene(raw_scene: scene_mod.SceneContext, cfg: RunConfig,
                  reasoning: bool = True, stream_key: int = 0) -> PredictionResult:
    """Run the full per-scene pipeline and return the K-mode forecast."""
    cfg.validate()
    spec = cfg.grid_spec()
    norm = scene_mod.normalize_to_target(raw_scene)
    _, _, _, speed = scene_mod.target_pose(norm)
    diagnostics = None
    if reasoning:
        features = scene_mod.rasterize_features(norm, spec) * FEATURE_SCALE
        demos = build_demos(norm, cfg, spec)
        params, diagnostics = irl.train_irl(features, demos, spec.anchor, spec,
                                            cfg.horizon, train_config(cfg))
        reward = irl.reward_forward(features, params)
        policy = irl.soft_policy(irl.soft_value_iteration(reward, spec, cfg.horizon),
                                 reward, spec)
    else:
        reward = np.zeros((spec.rows, spec.cols))
        policy = straight_rollout_policy(spec)

    batch = rollout.sample_rollouts(policy, reward, spec.anchor, spec, cfg.rollouts,
                                    cfg.horizon, rng.derive_seed(cfg.seed, stream_key))
    if reasoning:
        batch = rollout.gather_path_features(batch, features)
    proposals = np.stack([
        rollout.path_to_trajectory(batch.cells[i], spec, cfg.t_future, speed, norm.dt)
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
                            scene=norm, reasoning=reasoning, diagnostics=diagnostics)


def predicted_occupancy(result: PredictionResult, cfg: RunConfig) -> np.ndarray:
    return occupancy.predict_occupancy(result.policy, result.spec.anchor, result.spec,
                                       cfg.horizon, cfg.t_future)


def score_prediction(result: PredictionResult) -> metrics.SceneMetrics:
    gt = result.scene.gt_future[: result.forecast.trajectories.shape[1]]
    return metrics.score_forecast(result.forecast.trajectories, result.forecast.probs, gt)
