"""Command-line pipeline: gen | predict | eval | ablate | render.

Every subcommand exits 0 on success; failures print a machine-readable JSON
error object to stderr and exit nonzero. FIM_LOG={error,info,debug} controls
verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import metrics, occupancy, pipeline, render, rollout, scene as scene_mod
from .config import DEMO_HORIZON_FACTORS, RunConfig, config_to_text, load_config

log = logging.getLogger("gridcast")

VARIANT_BASELINE = "no_reasoning"


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("FIM_LOG", "error"), logging.ERROR)
    # basicConfig is a no-op once the root logger has a handler, so the
    # package logger's level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _load_effective_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "demo_horizon", None) is not None:
        overrides["demo_horizon_factor"] = args.demo_horizon
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def _echo_config(out_dir: Path, cfg: RunConfig) -> None:
    (out_dir / "config_used.cfg").write_text(config_to_text(cfg), encoding="utf-8")


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.per_kind < 0:
        raise ValueError(f"--per-kind must be >= 0, got {args.per_kind}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for kind in scene_mod.SCENE_KINDS:
        for i in range(args.per_kind):
            seed = (args.seed << 16) ^ (scene_mod.SCENE_KINDS.index(kind) << 8) ^ i
            sc = scene_mod.generate_scene(kind, seed)
            name = f"{kind}_{i:04d}.json"
            scene_mod.save_scene(out_dir / name, sc)
            entries.append({"file": name, "kind": kind, "seed": seed,
                            "sha256": _sha256(out_dir / name)})
    manifest = {"version": 1, "count": len(entries), "entries": entries}
    _write_json(out_dir / "manifest.json", manifest)
    log.info("wrote %d scenes to %s", len(entries), out_dir)
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def _predict_file(scene_path: Path, cfg: RunConfig, reasoning: bool):
    """Forecast one scene file: (result, its run record). Logs one info line
    with what the fit did and the wall time, which no output file holds."""
    start = time.perf_counter()
    payload = scene_path.read_bytes()
    sc = scene_mod.load_scene(scene_path)
    key = pipeline.scene_stream_key(payload)
    result = pipeline.predict_scene(sc, cfg, reasoning=reasoning, stream_key=key)
    rec = pipeline.run_record(result)
    variant = f"reasoning_h{cfg.demo_horizon_factor}" if reasoning else VARIANT_BASELINE
    log.info("scene=%s variant=%s irl_iterations=%s irl_converged=%s nll_first=%r "
             "nll_last=%r wall_s=%.3f", scene_path.name, variant, rec["irl_iterations"],
             rec["irl_converged"], rec["nll_first"], rec["nll_last"],
             time.perf_counter() - start)
    return result, rec


def cmd_predict(args) -> int:
    _check_jobs(args)
    cfg = _load_effective_config(args)
    scene_path = Path(args.scene)
    result, rec = _predict_file(scene_path, cfg, reasoning=not args.no_reasoning)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / (scene_path.stem + ".forecast.json")
    rollout.write_forecast(
        out_path, result.forecast, include_proposals=args.include_proposals,
        extra={"reasoning": result.reasoning, "scene": scene_path.name,
               "demo_horizon_factor": cfg.demo_horizon_factor, "seed": cfg.seed})
    _echo_config(out_dir, cfg)
    _write_json(out_dir / (scene_path.stem + ".run.json"),
                {"scene": scene_path.name, **rec,
                 "config_sha256": _sha256(out_dir / "config_used.cfg")})
    log.info("forecast written to %s", out_path)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _scene_files(scene_dir: Path) -> list:
    """The scenes of a directory, in manifest order if it has one; raises when
    there are none, so a mistyped path never passes as an empty run."""
    manifest = scene_dir / "manifest.json"
    if manifest.exists():
        payload = _read_json(manifest)
        entries = payload.get("entries") if isinstance(payload, dict) else None
        if not (isinstance(entries, list) and all(
                isinstance(e, dict) and isinstance(e.get("file"), str) for e in entries)):
            raise ValueError(f"{manifest}: a manifest must be an object whose \"entries\" "
                             "list gives each scene's \"file\"")
        files = [scene_dir / e["file"] for e in entries]
    else:
        files = sorted(p for p in scene_dir.glob("*.json") if p.name != "manifest.json")
    if not files:
        raise RuntimeError(f"no scene files found in {scene_dir}")
    return files


def _read_forecast(path: Path, n_modes: int | None, n_points: int):
    """(trajectories, probs) of a forecast file, rejecting malformed modes.

    ``n_modes`` is the mode count every file must share (None for the first
    file); ``n_points`` is the length of the scene's ground-truth future.
    """
    payload = _read_json(path)
    modes = payload.get("modes") if isinstance(payload, dict) else None
    if not (isinstance(modes, list) and all(isinstance(m, dict) for m in modes)):
        raise ValueError(f"{path.name}: a forecast must be an object with a list of modes")
    try:
        trajs = np.asarray([m["points"] for m in modes])
        probs = np.asarray([m["prob"] for m in modes])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path.name}: malformed modes: {exc!r}") from exc
    # numpy would read "1.0" as a number; JSON numbers only
    if trajs.dtype.kind not in "iuf" or probs.dtype.kind not in "iuf":
        raise ValueError(f"{path.name}: mode points and probabilities must be JSON numbers")
    trajs, probs = trajs.astype(np.float64), probs.astype(np.float64)
    if n_modes is not None and len(probs) != n_modes:
        raise ValueError(f"{path.name}: {len(probs)} modes, the first forecast has {n_modes}")
    if not (np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
            and abs(probs.sum() - 1.0) <= 1e-9):
        raise ValueError(f"{path.name}: mode probabilities {probs.tolist()} are not a "
                         "finite non-negative distribution summing to 1")
    if trajs.shape[1:] != (n_points, 2) or not np.all(np.isfinite(trajs)):
        raise ValueError(f"{path.name}: forecast points of shape {trajs.shape[1:]} are not "
                         f"{n_points} finite (x, y) points, the scene's future length")
    return trajs, probs


def cmd_eval(args) -> int:
    scene_files = _scene_files(Path(args.scenes))
    forecast_dir = Path(args.forecasts)
    per_scene = {}
    skipped = []
    n_modes = None
    for scene_path in scene_files:
        fpath = forecast_dir / (scene_path.stem + ".forecast.json")
        if not fpath.exists():
            skipped.append(scene_path.name)
            continue
        sc = scene_mod.normalize_to_target(scene_mod.load_scene(scene_path))
        trajs, probs = _read_forecast(fpath, n_modes, sc.gt_future.shape[0])
        n_modes = len(probs)
        per_scene[scene_path.stem] = metrics.score_forecast(trajs, probs, sc.gt_future)
    if per_scene:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = metrics.aggregate(per_scene.values(), k=n_modes)
        _write_json(out_dir / "report.json", {"aggregate": asdict(report)})
        (out_dir / "report.txt").write_text(
            metrics.format_report_table({"aggregate": report}), encoding="utf-8")
        _write_json(out_dir / "per_scene.json",
                    {name: vars(m) for name, m in sorted(per_scene.items())})
    if skipped:
        raise RuntimeError(f"missing forecasts for {len(skipped)} scene(s): "
                           + ", ".join(sorted(skipped)))
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def _ablate_one(task):
    """Worker: (stem, per-variant metrics, None) for a scene (variants paired by
    construction), or (stem, None, error) with the error's type and message."""
    scene_path, cfg_dict = task
    cfg = RunConfig(**cfg_dict)
    out = {}
    scene_path = Path(scene_path)
    try:
        result, _ = _predict_file(scene_path, cfg, reasoning=False)
        out[VARIANT_BASELINE] = vars(pipeline.score_prediction(result))
        for factor in DEMO_HORIZON_FACTORS:
            variant_cfg = replace(cfg, demo_horizon_factor=factor)
            result, _ = _predict_file(scene_path, variant_cfg, reasoning=True)
            out[f"reasoning_h{factor}"] = vars(pipeline.score_prediction(result))
    except Exception as exc:  # one bad scene must not sink the batch
        log.debug("scene %s failed", scene_path.name, exc_info=True)
        return scene_path.stem, None, {"error": type(exc).__name__, "message": str(exc)}
    return scene_path.stem, out, None


def cmd_ablate(args) -> int:
    _check_jobs(args)
    cfg = _load_effective_config(args)
    scene_files = _scene_files(Path(args.scenes))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(str(p), vars(cfg)) for p in scene_files]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_ablate_one, tasks))
    else:
        results = [_ablate_one(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    done = [scene_out for _, scene_out, error in results if error is None]
    failures = {stem: error for stem, _, error in results if error is not None}

    if done:  # aggregate whatever completed, even when some scenes failed
        variants = [VARIANT_BASELINE] + [f"reasoning_h{f}" for f in DEMO_HORIZON_FACTORS]
        reports = {}
        for variant in variants:
            ms = [metrics.SceneMetrics(**scene_out[variant]) for scene_out in done]
            reports[variant] = metrics.aggregate(ms, k=cfg.modes)
        _write_json(out_dir / "ablation.json",
                    {name: asdict(r) for name, r in reports.items()})
        table = metrics.format_report_table(reports)
        base = reports[VARIANT_BASELINE]
        lines = [table, "deltas vs no_reasoning (negative is better):"]
        for variant in variants[1:]:
            r = reports[variant]
            lines.append(
                f"{variant}: brier-minFDE {r.brier_min_fde - base.brier_min_fde:+.4f}"
                f"  Brier {r.brier - base.brier:+.4f}")
        (out_dir / "ablation.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _echo_config(out_dir, cfg)
    if failures:
        _write_json(out_dir / "ablation_failures.json", failures)
        raise RuntimeError(f"{len(failures)} of {len(results)} scene(s) failed: "
                           + ", ".join(sorted(failures)))
    return 0


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def cmd_render(args) -> int:
    path = Path(args.artifact)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".csv":
        render.field_to_pgm(out_dir / (path.stem + ".pgm"), render.read_field_csv(path))
        return 0
    if path.suffix == ".stogm":
        ogm = occupancy.read_ogm_binary(path)
        render.occupancy_frames(out_dir, ogm, prefix=path.stem)
        return 0
    payload = _read_json(path)
    if not isinstance(payload, dict) or "modes" in payload:  # forecast file: overlay only
        cfg = _load_effective_config(args)
        trajs, _ = _read_forecast(path, None, cfg.t_future)
        gt = np.zeros((0, 2))
        if args.scene:
            sc = scene_mod.normalize_to_target(scene_mod.load_scene(args.scene))
            gt = sc.gt_future
        img = render.trajectory_overlay(cfg.grid_spec(), gt, trajs)
        render.write_ppm(out_dir / (path.stem + ".overlay.ppm"), img)
        return 0
    # scene file: run the pipeline and emit the full figure set
    cfg = _load_effective_config(args)
    result, _ = _predict_file(path, cfg, reasoning=not args.no_reasoning)
    reward = pipeline.grid_reward(result)
    render.field_to_pgm(out_dir / "reward.pgm", reward)
    render.field_to_csv(out_dir / "reward.csv", reward)
    ogm = pipeline.predicted_occupancy(result, cfg)
    render.occupancy_frames(out_dir, ogm, prefix="occupancy")
    occupancy.write_ogm_binary(out_dir / "occupancy.stogm", ogm)
    img = render.trajectory_overlay(result.spec, result.scene.gt_future,
                                    result.forecast.trajectories, background=reward)
    render.write_ppm(out_dir / "overlay.ppm", img)
    _echo_config(out_dir, cfg)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridcast",
                                     description="grid-MDP intention reasoning and forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic scenes")
    p.add_argument("--out", required=True)
    p.add_argument("--per-kind", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("predict", help="forecast one scene")
    p.add_argument("scene")
    p.add_argument("--out", default=".")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--no-reasoning", action="store_true")
    p.add_argument("--demo-horizon", type=float, choices=DEMO_HORIZON_FACTORS)
    p.add_argument("--include-proposals", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score forecasts against scenes")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="reasoning and horizon-supervision sweeps")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("render", help="emit PGM/PPM figures for an artifact")
    p.add_argument("artifact")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--scene")
    p.add_argument("--no-reasoning", action="store_true")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured failure contract
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        log.debug("command failed", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
