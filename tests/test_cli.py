import json
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridcast import cli, pipeline
from gridcast.config import load_config
from gridcast.scene import (SCENE_KINDS, generate_scene, load_scene, normalize_to_target,
                            save_scene)

SMALL_CFG = """
rows=32
cols=32
resolution=2.0
anchor_row=8
anchor_col=16
horizon=12
rollouts=24
max_iters=10
lr=0.1
tol=1e-4
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG.strip() + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "straight_0000.json"
    save_scene(path, generate_scene("straight", seed=0))
    return str(path)


def test_gen_writes_scenes_and_manifest(tmp_path):
    out = tmp_path / "scenes"
    assert cli.main(["gen", "--out", str(out), "--per-kind", "1", "--seed", "3"]) == 0
    files = sorted(p.name for p in out.glob("*.json"))
    assert "manifest.json" in files
    assert len(files) == len(SCENE_KINDS) + 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == len(SCENE_KINDS)


def test_gen_deterministic_checksums(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["gen", "--out", str(a), "--per-kind", "2", "--seed", "7"])
    cli.main(["gen", "--out", str(b), "--per-kind", "2", "--seed", "7"])
    ma = (a / "manifest.json").read_bytes()
    mb = (b / "manifest.json").read_bytes()
    assert ma == mb


def test_gen_zero_scenes(tmp_path):
    out = tmp_path / "none"
    assert cli.main(["gen", "--out", str(out), "--per-kind", "0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 0 and manifest["entries"] == []


def test_gen_rejects_negative_per_kind(tmp_path, capsys):
    out = tmp_path / "scenes"
    assert cli.main(["gen", "--out", str(out), "--per-kind", "-2"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": "--per-kind must be >= 0, got -2"}
    assert not out.exists()


def test_predict_writes_valid_forecast(tmp_path, cfg_file, scene_file):
    out = tmp_path / "fc"
    rc = cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file])
    assert rc == 0
    payload = json.loads((out / "straight_0000.forecast.json").read_text())
    assert payload["reasoning"] is True
    assert len(payload["modes"]) == 6
    probs = [m["prob"] for m in payload["modes"]]
    assert abs(sum(probs) - 1.0) < 1e-9
    for mode in payload["modes"]:
        assert len(mode["points"]) == 30
        assert len(mode["points"][0]) == 2
    assert (out / "config_used.cfg").exists()


def test_predict_no_reasoning_flag_recorded(tmp_path, cfg_file, scene_file):
    out = tmp_path / "fc"
    rc = cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file,
                   "--no-reasoning"])
    assert rc == 0
    payload = json.loads((out / "straight_0000.forecast.json").read_text())
    assert payload["reasoning"] is False


def test_predict_reruns_byte_identical(tmp_path, cfg_file, scene_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cli.main(["predict", scene_file, "--out", str(out1), "--config", cfg_file, "--seed", "5"])
    cli.main(["predict", scene_file, "--out", str(out2), "--config", cfg_file, "--seed", "5"])
    a = (out1 / "straight_0000.forecast.json").read_bytes()
    b = (out2 / "straight_0000.forecast.json").read_bytes()
    assert a == b


def test_predict_demo_horizon_flag(tmp_path, cfg_file, scene_file):
    out = tmp_path / "fc"
    rc = cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file,
                   "--demo-horizon", "2.0"])
    assert rc == 0
    payload = json.loads((out / "straight_0000.forecast.json").read_text())
    assert payload["demo_horizon_factor"] == 2.0


def test_predict_writes_run_record_matching_the_prediction(tmp_path, cfg_file, scene_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file,
                         "--seed", "5"]) == 0
    a = (out1 / "straight_0000.run.json").read_bytes()
    assert a == (out2 / "straight_0000.run.json").read_bytes()
    record = json.loads(a)
    cfg = replace(load_config(cfg_file), seed=5)
    key = pipeline.scene_stream_key(Path(scene_file).read_bytes())
    result = pipeline.predict_scene(load_scene(scene_file), cfg, stream_key=key)
    diag = result.diagnostics
    assert record == {
        "scene": "straight_0000.json", "reasoning": True,
        "irl_iterations": diag.iterations, "irl_converged": diag.converged,
        "nll_first": diag.nll_history[0], "nll_last": diag.nll_history[-1],
        "grad_inf": diag.final_grad_inf, "kmeans_iterations": result.clusters.n_iter,
        "kmeans_inertia": result.clusters.inertia_history[-1], "stream_key": key,
    }
    assert result.stream_key == key


def test_predict_run_record_without_reasoning(tmp_path, cfg_file, scene_file):
    out = tmp_path / "fc"
    assert cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file,
                     "--no-reasoning"]) == 0
    record = json.loads((out / "straight_0000.run.json").read_text())
    assert record["reasoning"] is False
    for name in ("irl_iterations", "irl_converged", "nll_first", "nll_last", "grad_inf"):
        assert record[name] is None
    assert record["kmeans_iterations"] >= 1 and record["kmeans_inertia"] >= 0.0


@pytest.mark.parametrize("command", ["predict", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(tmp_path, cfg_file, scene_file, capsys, command, jobs):
    out = tmp_path / "out"
    target = [scene_file] if command == "predict" else ["--scenes", str(Path(scene_file).parent)]
    rc = cli.main([command, *target, "--out", str(out), "--config", cfg_file, "--jobs", jobs])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": f"--jobs must be >= 1, got {jobs}"}
    assert not out.exists()


def test_predict_rejects_meaningless_config_value(tmp_path, scene_file, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CFG.strip().replace("lr=0.1", "lr=-5") + "\n", encoding="utf-8")
    rc = cli.main(["predict", scene_file, "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "lr must be a finite positive number" in err["message"]
    assert not (tmp_path / "out").exists()


def test_predict_error_is_structured(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = cli.main(["predict", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SceneFormatError"
    assert "line" in err["message"]


def _write_gt_forecasts(scene_dir: Path, forecast_dir: Path):
    forecast_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(scene_dir.glob("*.json")):
        if path.name == "manifest.json":
            continue
        scene = normalize_to_target(load_scene(path))
        modes = [{"prob": 1.0, "points": scene.gt_future.tolist()}]
        (forecast_dir / (path.stem + ".forecast.json")).write_text(
            json.dumps({"version": 1, "modes": modes, "anchors": []}), encoding="utf-8")


def test_eval_perfect_forecasts(tmp_path):
    scenes = tmp_path / "scenes"
    cli.main(["gen", "--out", str(scenes), "--per-kind", "1", "--seed", "1"])
    forecasts = tmp_path / "fc"
    _write_gt_forecasts(scenes, forecasts)
    out = tmp_path / "report"
    rc = cli.main(["eval", "--forecasts", str(forecasts), "--scenes", str(scenes),
                   "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())["aggregate"]
    assert report["min_ade"] == 0.0
    assert report["min_fde"] == 0.0
    assert report["miss_rate"] == 0.0
    assert report["brier"] == 0.0
    assert (out / "report.txt").read_text().startswith("method")


def test_eval_aggregate_is_mean(tmp_path):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for i, kind in enumerate(["straight", "stop"]):
        save_scene(scenes / f"{kind}_{i}.json", generate_scene(kind, seed=i))
    forecasts = tmp_path / "fc"
    _write_gt_forecasts(scenes, forecasts)
    # offset one forecast by 3 m at the endpoint only
    target = forecasts / "stop_1.forecast.json"
    payload = json.loads(target.read_text())
    payload["modes"][0]["points"][-1][1] += 3.0
    target.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "report"
    rc = cli.main(["eval", "--forecasts", str(forecasts), "--scenes", str(scenes),
                   "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())["aggregate"]
    per = json.loads((out / "per_scene.json").read_text())
    fdes = [per[name]["min_fde"] for name in sorted(per)]
    assert report["min_fde"] == pytest.approx(float(np.mean(fdes)))
    assert report["miss_rate"] == 0.5


def test_eval_missing_forecast_nonzero_exit(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    cli.main(["gen", "--out", str(scenes), "--per-kind", "1", "--seed", "2"])
    forecasts = tmp_path / "fc"
    _write_gt_forecasts(scenes, forecasts)
    (forecasts / "stop_0000.forecast.json").unlink()
    rc = cli.main(["eval", "--forecasts", str(forecasts), "--scenes", str(scenes),
                   "--out", str(tmp_path / "rep")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "stop_0000" in err["message"]


def test_ablate_report_structure(tmp_path, cfg_file):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for i, kind in enumerate(["straight", "intersection_left"]):
        save_scene(scenes / f"{kind}_{i}.json", generate_scene(kind, seed=i))
    out = tmp_path / "ablation"
    rc = cli.main(["ablate", "--scenes", str(scenes), "--out", str(out),
                   "--config", cfg_file])
    assert rc == 0
    report = json.loads((out / "ablation.json").read_text())
    assert set(report) == {"no_reasoning", "reasoning_h1.0", "reasoning_h1.5",
                           "reasoning_h2.0"}
    for variant in report.values():
        assert variant["n_scenes"] == 2
    text = (out / "ablation.txt").read_text()
    assert "deltas vs no_reasoning" in text
    assert "brier-minFDE" in text


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ablate_reports_completed_scenes_and_failures(tmp_path, cfg_file, capsys, jobs):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for i, kind in enumerate(["straight", "intersection_left", "stop"]):
        save_scene(scenes / f"{kind}_{i}.json", generate_scene(kind, seed=i))
    bad = scenes / "stop_2.json"
    payload = json.loads(bad.read_text())
    payload["dt"] = -0.1
    bad.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "ablation"
    rc = cli.main(["ablate", "--scenes", str(scenes), "--out", str(out),
                   "--config", cfg_file, "--jobs", jobs])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "RuntimeError"
    assert "1 of 3" in err["message"] and "stop_2" in err["message"]
    report = json.loads((out / "ablation.json").read_text())
    assert all(variant["n_scenes"] == 2 for variant in report.values())
    assert (out / "ablation.txt").exists()
    failures = json.loads((out / "ablation_failures.json").read_text())
    assert list(failures) == ["stop_2"]
    assert failures["stop_2"]["error"] == "SceneFormatError"
    assert "dt" in failures["stop_2"]["message"]


def test_render_scene_artifacts(tmp_path, cfg_file, scene_file):
    out = tmp_path / "figs"
    rc = cli.main(["render", scene_file, "--out", str(out), "--config", cfg_file])
    assert rc == 0
    reward = (out / "reward.pgm").read_bytes()
    assert reward.startswith(b"P5\n32 32\n255\n")
    frames = sorted(out.glob("occupancy_*.pgm"))
    assert len(frames) == 30
    assert (out / "overlay.ppm").read_bytes().startswith(b"P6\n32 32\n255\n")
    assert (out / "reward.csv").exists()
    assert (out / "occupancy.stogm").exists()


def test_log_env_var_accepted(tmp_path, monkeypatch):
    # every call applies FIM_LOG, also when the root logger already has handlers
    out = tmp_path / "scenes"
    for value, level in (("debug", logging.DEBUG), ("error", logging.ERROR),
                         ("info", logging.INFO), ("not-a-level", logging.ERROR)):
        monkeypatch.setenv("FIM_LOG", value)
        assert cli.main(["gen", "--out", str(out), "--per-kind", "0"]) == 0
        assert logging.getLogger("gridcast").getEffectiveLevel() == level


def test_predict_rejects_nonfinite_scene(tmp_path, capsys):
    path = tmp_path / "nan.json"
    save_scene(path, generate_scene("straight", seed=0))
    path.write_text(path.read_text().replace("0.0", "NaN", 1), encoding="utf-8")
    rc = cli.main(["predict", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SceneFormatError"
    assert "non-finite" in err["message"]


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"', "null"])
def test_predict_rejects_scene_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "list.json"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["predict", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SceneFormatError"
    assert "must be a JSON object" in err["message"]


def test_render_ogm_binary(tmp_path, cfg_file, scene_file):
    figs = tmp_path / "figs"
    cli.main(["render", scene_file, "--out", str(figs), "--config", cfg_file])
    out2 = tmp_path / "frames"
    rc = cli.main(["render", str(figs / "occupancy.stogm"), "--out", str(out2)])
    assert rc == 0
    assert len(list(out2.glob("occupancy_*.pgm"))) == 30


def test_render_byte_identical_across_runs(tmp_path, cfg_file, scene_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["render", scene_file, "--out", str(out),
                         "--config", cfg_file, "--seed", "4"]) == 0
    for name in ("reward.pgm", "reward.csv", "overlay.ppm", "occupancy.stogm",
                 "occupancy_000.pgm", "occupancy_029.pgm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _eval_error(tmp_path, capsys, edit):
    """Run eval on two GT forecasts after ``edit(name, modes)`` rewrote them."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for i, kind in enumerate(["straight", "stop"]):
        save_scene(scenes / f"{kind}_{i}.json", generate_scene(kind, seed=i))
    forecasts = tmp_path / "fc"
    _write_gt_forecasts(scenes, forecasts)
    for path in forecasts.glob("*.forecast.json"):
        payload = json.loads(path.read_text())
        payload["modes"] = edit(path.name, payload["modes"])
        path.write_text(json.dumps(payload), encoding="utf-8")
    rc = cli.main(["eval", "--forecasts", str(forecasts), "--scenes", str(scenes),
                   "--out", str(tmp_path / "rep")])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    return rc, err


def test_eval_rejects_mixed_mode_counts(tmp_path, capsys):
    # the second file (sorted order) carries 2 modes, the first 1
    def edit(name, modes):
        if name.startswith("straight"):
            return [dict(modes[0], prob=0.5), dict(modes[0], prob=0.5)]
        return modes

    rc, err = _eval_error(tmp_path, capsys, edit)
    assert rc == 1
    assert err["error"] == "ValueError"
    assert "2 modes" in err["message"] and "has 1" in err["message"]


@pytest.mark.parametrize("probs", [[0.5] * 6, [1.5, -0.5], [float("nan"), 1.0],
                                   [1.0 + 1e-8]])
def test_eval_rejects_bad_probabilities(tmp_path, capsys, probs):
    def edit(name, modes):
        return [dict(modes[0], prob=p) for p in probs]

    rc, err = _eval_error(tmp_path, capsys, edit)
    assert rc == 1
    assert err["error"] == "ValueError"
    assert "probabilities" in err["message"]


def test_eval_rejects_short_forecast(tmp_path, capsys):
    def edit(name, modes):
        return [dict(m, points=m["points"][:1]) for m in modes]

    rc, err = _eval_error(tmp_path, capsys, edit)
    assert rc == 1
    assert err["error"] == "ValueError"
    assert "30 finite (x, y) points" in err["message"]
