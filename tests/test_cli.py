import json
import logging
from pathlib import Path

import numpy as np
import pytest

from gridcast import cli
from gridcast.scene import SCENE_KINDS, generate_scene, normalize_to_target, save_scene

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
        scene = normalize_to_target(__import__("gridcast.scene", fromlist=["load_scene"]).load_scene(path))
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
