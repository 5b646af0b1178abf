"""The benchmark's workloads: scene sets, the work done per scene, output checks.

Every workload drives the library in-process through its public functions.
Scene ``i`` of a workload seed has kind ``SCENE_KINDS[(seed + i) % 6]`` and a
generator seed hashed from (workload seed, i); scenes are written to JSON and
their stream keys come from ``pipeline.scene_stream_key`` over the file bytes,
exactly as the ``predict`` command derives them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from gridcast import metrics, occupancy, pipeline, rollout, scene as scene_mod
from gridcast.config import DEMO_HORIZON_FACTORS, RunConfig

# The acceptance experiment's configuration (criteria 07-09).
ABLATION_CFG = RunConfig(
    rows=40, cols=40, resolution=2.0, anchor_row=10, anchor_col=20,
    horizon=16, rollouts=96, modes=6, temperature=1.0, smooth_weight=4.0,
    reward_mode="two_layer", hidden=16, optimizer="adam", lr=0.1,
    max_iters=150, tol=1e-6, seed=0)

PROB_SUM_TOL = 1e-12
OCC_MASS_TOL = 1e-9


@dataclass
class SceneInput:
    index: int
    path: Path
    forecast_path: Path
    scene: scene_mod.SceneContext | None = None  # preloaded unless read per scene
    key: int = 0


@dataclass
class Output:
    """One forecast a scene produced, with what its checks and scores need."""

    variant: str
    forecast: rollout.Forecast | None  # None once hashed
    scores: metrics.SceneMetrics
    occupancy: np.ndarray | None = None
    focal_bce: float | None = None
    diagnostics: object = None  # irl.TrainDiagnostics for reasoning variants


def _reasoning(sc, cfg: RunConfig, key: int, variant: str) -> Output:
    result = pipeline.predict_scene(sc, cfg, reasoning=True, stream_key=key)
    ogm = pipeline.predicted_occupancy(result, cfg)
    # target-only GT for the target-only predictor, as in criterion 09
    gt = occupancy.rasterize_gt_ogm(replace(result.scene, agent_futures=None), result.spec)
    return Output(variant, result.forecast, pipeline.score_prediction(result),
                  occupancy=ogm, focal_bce=occupancy.focal_bce(ogm, gt),
                  diagnostics=result.diagnostics)


def run_predict_default(item: SceneInput, cfg: RunConfig) -> list[Output]:
    return [_reasoning(item.scene, cfg, item.key, "reasoning")]


def run_ablate_small(item: SceneInput, cfg: RunConfig) -> list[Output]:
    """The four paired variants ``ablate`` runs for one scene."""
    base = pipeline.predict_scene(item.scene, cfg, reasoning=False, stream_key=item.key)
    outs = [Output("no_reasoning", base.forecast, pipeline.score_prediction(base))]
    for factor in DEMO_HORIZON_FACTORS:
        outs.append(_reasoning(item.scene, replace(cfg, demo_horizon_factor=factor),
                               item.key, f"reasoning_h{factor}"))
    return outs


def run_baseline_batch(item: SceneInput, cfg: RunConfig) -> list[Output]:
    """``predict --no-reasoning`` on one scene file, writing its forecast."""
    payload = item.path.read_bytes()
    sc = scene_mod.load_scene(item.path)
    result = pipeline.predict_scene(sc, cfg, reasoning=False,
                                    stream_key=pipeline.scene_stream_key(payload))
    scores = pipeline.score_prediction(result)
    rollout.write_forecast(
        item.forecast_path, result.forecast,
        extra={"reasoning": result.reasoning, "scene": item.path.name,
               "demo_horizon_factor": cfg.demo_horizon_factor, "seed": cfg.seed})
    return [Output("no_reasoning", result.forecast, scores)]


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: RunConfig
    run_scene: Callable[[SceneInput, RunConfig], list[Output]]
    set_size: int        # scenes in the timed set; a timed run cycles through it
    trace_size: int      # scenes timed untraced and then traced in a traced run
    quality_size: int    # scenes in the quality set, which is the same for every seed
    preload: bool        # load scenes during set-up (else run_scene reads them)
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "predict_default", RunConfig(), run_predict_default,
            set_size=2, trace_size=1, quality_size=1, preload=True,
            why="default 128x128/H=32 config with reasoning: soft value iteration and "
                "visitation do nearly all the work"),
        Workload(
            "ablate_small", ABLATION_CFG, run_ablate_small,
            set_size=6, trace_size=3, quality_size=2, preload=True,
            why="acceptance 40x40/H=16 config, four paired ablate variants per scene: "
                "per-call overhead of 450 IRL steps"),
        Workload(
            "baseline_batch", RunConfig(), run_baseline_batch,
            set_size=480, trace_size=60, quality_size=30, preload=False,
            why="predict --no-reasoning over 480 scene files: rollouts, decoding and JSON "
                "I/O with IRL idle"),
    )
}

# Seed of the quality set. It does not depend on the workload seed, so the
# quality metrics of one commit are the same on every run.
QUALITY_SEED = 0


def scene_seed(workload_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"gridcast-bench:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def write_scene_set(out_dir: Path, workload_seed: int, count: int) -> list[Path]:
    """Generate and save ``count`` scenes; the kinds rotate from a seed offset."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    kinds = scene_mod.SCENE_KINDS
    for i in range(count):
        kind = kinds[(workload_seed + i) % len(kinds)]
        path = out_dir / f"{i:04d}_{kind}.json"
        scene_mod.save_scene(path, scene_mod.generate_scene(kind, scene_seed(workload_seed, i)))
        paths.append(path)
    return paths


def scene_inputs(paths: list[Path], forecast_dir: Path, preload: bool) -> list[SceneInput]:
    forecast_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for i, path in enumerate(paths):
        item = SceneInput(i, path, forecast_dir / (path.stem + ".forecast.json"))
        if preload:
            item.scene = scene_mod.load_scene(path)
            item.key = pipeline.scene_stream_key(path.read_bytes())
        items.append(item)
    return items


def scene_set_sha256(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_output(out: Output, cfg: RunConfig) -> list[str]:
    """Problems with one forecast; an empty list means it passed every check."""
    f = out.forecast
    problems = []
    shape = (cfg.modes, cfg.t_future, 2)
    traj = np.asarray(f.trajectories)
    if traj.shape != shape:
        problems.append(f"trajectories shape {traj.shape} != {shape}")
    elif not np.all(np.isfinite(traj)):
        problems.append("trajectories not finite")
    probs = np.asarray(f.probs)
    if probs.shape != (cfg.modes,):
        problems.append(f"probs shape {probs.shape} != {(cfg.modes,)}")
    elif not np.all(np.isfinite(probs)):
        problems.append("probs not finite")
    elif probs.min() < 0.0:
        problems.append(f"negative prob {probs.min()!r}")
    elif abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
        problems.append(f"probs sum to {float(probs.sum())!r}")
    anchors, offsets = np.asarray(f.anchors), np.asarray(f.offsets)
    if anchors.shape != traj.shape or offsets.shape != traj.shape \
            or not np.array_equal(traj, anchors + offsets):
        problems.append("trajectories != anchors + offsets bitwise")
    if out.occupancy is not None:
        ogm = out.occupancy
        grid = (cfg.rows, cfg.cols, cfg.t_future)
        if ogm.shape != grid:
            problems.append(f"occupancy shape {ogm.shape} != {grid}")
        elif not np.all(np.isfinite(ogm)):
            problems.append("occupancy not finite")
        else:
            gap = float(np.abs(ogm.sum(axis=(0, 1)) - 1.0).max())
            if gap > OCC_MASS_TOL:
                problems.append(f"occupancy mass off by {gap:.2e}")
    return [f"{out.variant}: {p}" for p in problems]


def output_hash(scene_index: int, out: Output) -> bytes:
    """sha256 of the serialized forecast, scores and IRL outcome of one output."""
    rec = {"scene": scene_index, "variant": out.variant,
           "forecast": rollout.forecast_to_payload(out.forecast),
           "scores": vars(out.scores), "focal_bce": out.focal_bce}
    if out.diagnostics is not None:
        rec["irl"] = {"iterations": out.diagnostics.iterations,
                      "converged": out.diagnostics.converged,
                      "final_grad_inf": out.diagnostics.final_grad_inf}
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).digest()


def quality(outputs: list[Output], k: int) -> dict:
    """Forecast quality over the reasoning outputs, or over all when none reason.

    Deterministic for a scene set, so a speed-up bought with accuracy shows here.
    """
    chosen = [o for o in outputs if o.diagnostics is not None] or outputs
    report = metrics.aggregate([o.scores for o in chosen], k=k)
    out = {"n_forecasts": report.n_scenes, "brier_min_fde": report.brier_min_fde,
           "brier": report.brier, "min_fde": report.min_fde, "miss_rate": report.miss_rate}
    focal = [o.focal_bce for o in chosen if o.focal_bce is not None]
    if focal:
        out["occupancy_focal_bce"] = float(np.mean(focal))
    gaps = [o.diagnostics.final_grad_inf for o in chosen if o.diagnostics is not None]
    if gaps:
        out["irl_gap_inf_mean"] = float(np.mean(gaps))
    return out


def digest(output_hashes: list[bytes], qual: dict, counts: dict | None = None) -> str:
    """sha256 over the outputs' hashes, the quality metrics and the counts."""
    h = hashlib.sha256()
    for out_hash in output_hashes:
        h.update(out_hash)
    h.update(json.dumps(qual, sort_keys=True).encode())
    if counts is not None:
        h.update(json.dumps(counts, sort_keys=True).encode())
    return h.hexdigest()

