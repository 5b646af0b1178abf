import hashlib
import json
import logging
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridcast import cli, pipeline
from gridcast.config import RunConfig, load_config
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
        "config_sha256": hashlib.sha256((out1 / "config_used.cfg").read_bytes()).hexdigest(),
    }
    assert result.stream_key == key


def test_predict_builds_the_run_record_once(tmp_path, cfg_file, scene_file, monkeypatch):
    records = []
    real = pipeline.run_record

    def counted(result):
        records.append(real(result))
        return records[-1]

    monkeypatch.setattr(pipeline, "run_record", counted)
    out = tmp_path / "fc"
    assert cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file]) == 0
    [rec] = records
    written = json.loads((out / "straight_0000.run.json").read_text())
    assert written == {"scene": "straight_0000.json", **rec,
                       "config_sha256": written["config_sha256"]}


def test_predict_run_record_without_reasoning(tmp_path, cfg_file, scene_file):
    out = tmp_path / "fc"
    assert cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file,
                     "--no-reasoning"]) == 0
    record = json.loads((out / "straight_0000.run.json").read_text())
    assert record["reasoning"] is False
    for name in ("irl_iterations", "irl_converged", "nll_first", "nll_last", "grad_inf"):
        assert record[name] is None
    assert record["kmeans_iterations"] >= 1 and record["kmeans_inertia"] >= 0.0


def test_readme_run_record_format_lists_the_written_keys(tmp_path, cfg_file, scene_file):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [listed] = re.findall(r"Run record \(`predict`\): JSON `\{([^}]*)\}`", readme)
    out = tmp_path / "fc"
    assert cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file]) == 0
    record = json.loads((out / "straight_0000.run.json").read_text())
    # the file sorts its keys; the README lists them in pipeline.run_record's order
    assert sorted(name.strip() for name in listed.split(",")) == sorted(record)


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


def test_predict_reports_an_underflowing_plan_as_a_structured_error(tmp_path, scene_file,
                                                                     capsys):
    # a first Adam step of ~1000 per parameter spreads the next reward over
    # thousands of nats, past what the plan holds in probability space
    cfg = tmp_path / "wild.cfg"
    cfg.write_text(SMALL_CFG.strip().replace("lr=0.1", "lr=1000.0") + "\n", encoding="utf-8")
    assert cli.main(["predict", scene_file, "--out", str(tmp_path / "fc"),
                     "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "IrlDivergenceError"
    assert re.fullmatch(r"the plan underflows at step \d+: .* \(iteration 2\)", err["message"])


def test_predict_plans_rewards_spanning_thousands_of_nats(tmp_path, scene_file):
    # at lr=10 the fit's rewards span up to ~9,400 nats over the box; each
    # window's own shift keeps them in range, as log-space planning did
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(SMALL_CFG.strip().replace("lr=0.1", "lr=10.0") + "\n", encoding="utf-8")
    assert cli.main(["predict", scene_file, "--out", str(tmp_path / "fc"),
                     "--config", str(cfg)]) == 0
    assert (tmp_path / "fc" / "straight_0000.forecast.json").exists()


@pytest.mark.parametrize("scenes", ["missing", "empty"])
def test_eval_without_scenes_fails_before_creating_out(tmp_path, capsys, scenes):
    (tmp_path / "empty").mkdir()
    forecasts = tmp_path / "fc"
    forecasts.mkdir()
    out = tmp_path / "rep"
    rc = cli.main(["eval", "--forecasts", str(forecasts), "--scenes", str(tmp_path / scenes),
                   "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "RuntimeError",
                   "message": f"no scene files found in {tmp_path / scenes}"}
    assert not out.exists()


def test_eval_without_any_forecast_fails_before_creating_out(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    cli.main(["gen", "--out", str(scenes), "--per-kind", "1", "--seed", "2"])
    out = tmp_path / "rep"
    rc = cli.main(["eval", "--forecasts", str(tmp_path / "missing"), "--scenes", str(scenes),
                   "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "RuntimeError" and "missing forecasts" in err["message"]
    assert not out.exists()


def test_predict_missing_scene_fails_before_creating_out(tmp_path, capsys):
    out = tmp_path / "fc"
    rc = cli.main(["predict", str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "FileNotFoundError"
    assert not out.exists()


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


FIELD_CSV = "row,col,value\n0,0,-1.5\n0,1,0.0\n1,0,-0.25\n1,1,-3.0\n"


@pytest.mark.parametrize("text", [
    "",
    "row,col,value\n",
    FIELD_CSV.replace("-0.25", "nan"),
    FIELD_CSV.replace("-3.0", "-inf"),
    FIELD_CSV[:-5],
    FIELD_CSV.rsplit("1,1,", 1)[0],
    FIELD_CSV.replace("0,1,0.0", "0,0,0.0"),
    FIELD_CSV.replace("-1.5", "x"),
    FIELD_CSV.replace("1,1,", "-1,1,"),
    "row,col,value\n-5,0,1.0\n",
], ids=["empty", "header-only", "nan", "inf", "cut-mid-line", "missing-cell",
        "duplicate-cell", "not-a-number", "negative-index", "only-negative-index"])
def test_render_rejects_malformed_field_csv_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "reward.csv"
    path.write_text(FIELD_CSV, encoding="utf-8")
    assert cli.main(["render", str(path), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "reward.pgm").read_bytes().startswith(b"P5\n2 2\n255\n")
    path.write_text(text, encoding="utf-8")
    rc, err = _render_error(tmp_path, capsys, path)
    assert rc == 1
    assert err["error"] == "ValueError"
    assert "reward.csv" in err["message"]
    assert not any((tmp_path / "figs").iterdir())


def _ogm_bytes(ogm) -> bytes:
    return struct.pack("<3I", *ogm.shape) + np.ascontiguousarray(ogm, dtype="<f4").tobytes()


OGM = np.linspace(0.0, 1.0, 2 * 3 * 4).reshape(2, 3, 4)


@pytest.mark.parametrize("blob", [
    b"",
    _ogm_bytes(OGM)[:7],
    _ogm_bytes(OGM)[:-3],
    _ogm_bytes(OGM)[:12],
    _ogm_bytes(np.zeros((0, 3, 4))),
    _ogm_bytes(np.where(OGM == OGM[1, 2, 3], np.nan, OGM)),
    _ogm_bytes(np.where(OGM == OGM[0, 0, 1], np.inf, OGM)),
    _ogm_bytes(np.full((4, 4, 2), -3.0)),
    _ogm_bytes(np.full((4, 4, 2), 7.5)),
    _ogm_bytes(np.where(OGM == OGM[1, 1, 1], 1.0 + 1e-6, OGM)),
    struct.pack("<3I", 4, 4, 2) + bytes([0, 1] * 8 + [7] + [0] * 15),
], ids=["empty", "cut-header", "cut-payload", "header-only", "empty-grid", "nan", "inf",
        "negative", "above-one", "just-above-one", "binary-holding-7"])
def test_render_rejects_malformed_ogm_binary_naming_the_file(tmp_path, capsys, blob):
    path = tmp_path / "occupancy.stogm"
    path.write_bytes(_ogm_bytes(OGM))
    assert cli.main(["render", str(path), "--out", str(tmp_path / "ok")]) == 0
    assert len(list((tmp_path / "ok").glob("occupancy_*.pgm"))) == 4
    path.write_bytes(blob)
    rc, err = _render_error(tmp_path, capsys, path)
    assert rc == 1
    assert err["error"] == "ValueError"
    assert "occupancy.stogm" in err["message"]
    assert not any((tmp_path / "figs").iterdir())


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


@pytest.mark.parametrize("manifest", [{}, [], {"entries": [{"kind": "straight"}]}],
                         ids=["empty-object", "list", "entry-without-file"])
def test_scene_dir_with_malformed_manifest_names_it(tmp_path, capsys, manifest):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    save_scene(scenes / "straight_0.json", generate_scene("straight", seed=0))
    (scenes / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    out = tmp_path / "rep"
    rc = cli.main(["eval", "--forecasts", str(tmp_path / "fc"), "--scenes", str(scenes),
                   "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{scenes / 'manifest.json'}: ")
    assert not out.exists()


RAGGED_MODES = [{"prob": 0.5, "points": [[0.0, 0.0]] * 30},
                {"prob": 0.5, "points": [[0.0, 0.0]] * 29}]


@pytest.mark.parametrize("payload, detail", [
    ([1, 2], "must be an object with a list of modes"),
    ({"version": 1}, "must be an object with a list of modes"),
    ({"version": 1, "modes": RAGGED_MODES}, "malformed modes"),
], ids=["not-an-object", "without-modes", "ragged-points"])
def test_eval_rejects_malformed_forecast_naming_the_file(tmp_path, capsys, payload, detail):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    save_scene(scenes / "straight_0.json", generate_scene("straight", seed=0))
    forecasts = tmp_path / "fc"
    forecasts.mkdir()
    (forecasts / "straight_0.forecast.json").write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "rep"
    rc = cli.main(["eval", "--forecasts", str(forecasts), "--scenes", str(scenes),
                   "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith("straight_0.forecast.json: ")
    assert detail in err["message"]
    assert not out.exists()


def _scene_lines(caplog) -> list:
    return [r.getMessage() for r in caplog.records
            if r.name == "gridcast" and r.getMessage().startswith("scene=")]


def _wall_s(line: str) -> float:
    return float(line.rpartition(" wall_s=")[2])


def test_predict_info_log_has_one_line_per_scene(tmp_path, cfg_file, scene_file,
                                                 monkeypatch, caplog):
    monkeypatch.setenv("FIM_LOG", "info")
    out = tmp_path / "fc"
    assert cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file]) == 0
    [line] = _scene_lines(caplog)
    rec = json.loads((out / "straight_0000.run.json").read_text())
    assert line.startswith(
        f"scene=straight_0000.json variant=reasoning_h1.0 "
        f"irl_iterations={rec['irl_iterations']} irl_converged={rec['irl_converged']} "
        f"nll_first={rec['nll_first']!r} nll_last={rec['nll_last']!r} wall_s=")
    assert _wall_s(line) > 0.0
    # the wall time goes to the log only: reruns keep writing the same bytes
    for path in out.iterdir():
        assert "wall" not in path.read_text(), path.name


def test_ablate_info_log_has_one_line_per_scene_and_variant(tmp_path, cfg_file, monkeypatch,
                                                            caplog):
    monkeypatch.setenv("FIM_LOG", "info")
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for i, kind in enumerate(["straight", "stop"]):
        save_scene(scenes / f"{kind}_{i}.json", generate_scene(kind, seed=i))
    out = tmp_path / "ablation"
    assert cli.main(["ablate", "--scenes", str(scenes), "--out", str(out),
                     "--config", cfg_file]) == 0
    lines = _scene_lines(caplog)
    heads = sorted(line.split(" irl_iterations=")[0] for line in lines)
    assert heads == sorted(f"scene={scene} variant={variant}"
                           for scene in ("straight_0.json", "stop_1.json")
                           for variant in ("no_reasoning", "reasoning_h1.0",
                                           "reasoning_h1.5", "reasoning_h2.0"))
    for line in lines:
        reasoning = "variant=reasoning" in line
        assert ("irl_iterations=None" in line) != reasoning
        assert ("nll_first=None nll_last=None" in line) != reasoning
        assert _wall_s(line) > 0.0
    for path in out.iterdir():
        assert "wall" not in path.read_text(), path.name


def test_predict_debug_log_has_one_line_per_irl_iteration(tmp_path, cfg_file, scene_file,
                                                          monkeypatch, caplog):
    quiet = tmp_path / "quiet"
    monkeypatch.setenv("FIM_LOG", "error")
    assert cli.main(["predict", scene_file, "--out", str(quiet), "--config", cfg_file]) == 0
    monkeypatch.setenv("FIM_LOG", "debug")
    out = tmp_path / "fc"
    assert cli.main(["predict", scene_file, "--out", str(out), "--config", cfg_file]) == 0
    records = [r for r in caplog.records if r.name == "gridcast.irl"]
    rec = json.loads((out / "straight_0000.run.json").read_text())
    assert len(records) == rec["irl_iterations"] > 1
    for it, record in enumerate(records, start=1):
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(f"it={it} nll=")
        assert " grad_inf=" in record.getMessage()
    assert records[0].getMessage().startswith(f"it=1 nll={rec['nll_first']!r} ")
    assert records[-1].getMessage() == (f"it={rec['irl_iterations']} nll={rec['nll_last']!r} "
                                        f"grad_inf={rec['grad_inf']!r}")
    # the log is the only output that changes
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in quiet.iterdir())
    for path in out.iterdir():
        assert path.read_bytes() == (quiet / path.name).read_bytes(), path.name


def _render_error(tmp_path, capsys, path):
    rc = cli.main(["render", str(path), "--out", str(tmp_path / "figs")])
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    return rc, err


GT_MODES = [{"prob": 1.0, "points": [[float(i), 0.0] for i in range(1, 31)]}]


@pytest.mark.parametrize("payload", [
    {"version": 1, "modes": [{"prob": 1.0}]},
    {"version": 1, "modes": 3},
    7,
    {"version": 1, "modes": RAGGED_MODES},
], ids=["mode-without-points", "modes-not-a-list", "not-an-object", "ragged-points"])
def test_render_rejects_malformed_forecast_naming_the_file(tmp_path, capsys, payload):
    path = tmp_path / "straight_0.forecast.json"
    path.write_text(json.dumps({"version": 1, "modes": GT_MODES}), encoding="utf-8")
    assert cli.main(["render", str(path), "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / "straight_0.forecast.overlay.ppm").exists()
    path.write_text(json.dumps(payload), encoding="utf-8")
    rc, err = _render_error(tmp_path, capsys, path)
    assert rc == 1
    assert err["error"] == "ValueError"
    assert err["message"].startswith("straight_0.forecast.json: ")


def _malformed_forecast_text(rs) -> str:
    """A forecast file that eval and render must reject: a valid payload of
    one 30-point mode, broken by one of nine seeded edits."""
    points = rs.uniform(-20.0, 20.0, (30, 2)).tolist()
    payload = {"version": 1, "modes": [{"prob": 1.0, "points": points}], "anchors": []}
    mode = payload["modes"][0]
    kind = rs.randint(9)
    if kind == 0:    # not an object
        payload = [None, 3, -1.5, "modes", [], True][rs.randint(6)]
    elif kind == 1:  # modes not a list of objects
        payload["modes"] = [None, 3, "x", {"prob": 1.0}, [1, 2], [[1.0]]][rs.randint(6)]
    elif kind == 2:  # a mode without points or prob
        del mode[("points", "prob")[rs.randint(2)]]
    elif kind == 3:  # ragged points
        del mode["points"][rs.randint(30)][rs.randint(2)]
    elif kind == 4:  # too few or too many points
        mode["points"] = points[: rs.randint(30)] if rs.randint(2) else points + points[:3]
    elif kind == 5:  # a coordinate that is not a finite number
        mode["points"][rs.randint(30)][rs.randint(2)] = [None, "1.0", [1.0], float("nan"),
                                                         float("inf")][rs.randint(5)]
    elif kind == 6:  # probabilities that are not a distribution
        mode["prob"] = [None, "1", float("nan"), -1.0, 1.0 + rs.uniform(1e-6, 1.0),
                        rs.uniform(0.0, 0.99)][rs.randint(6)]
    elif kind == 7:  # a second mode that breaks the sum
        payload["modes"].append({"prob": rs.uniform(0.01, 1.0), "points": points})
    else:            # truncated JSON text
        text = json.dumps(payload)
        return text[: rs.randint(1, len(text))]
    return json.dumps(payload)


def test_malformed_forecasts_fail_eval_and_render_naming_the_file(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    save_scene(scenes / "straight_0.json", generate_scene("straight", seed=0))
    forecasts = tmp_path / "fc"
    forecasts.mkdir()
    path = forecasts / "straight_0.forecast.json"
    rs = np.random.RandomState(707)
    for case in range(60):
        text = _malformed_forecast_text(rs)
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"rep{case}"
        rc = cli.main(["eval", "--forecasts", str(forecasts), "--scenes", str(scenes),
                       "--out", str(out)])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rc == 1, text
        assert "straight_0.forecast.json" in err["message"], (text, err)
        assert not out.exists()
        rc, err = _render_error(tmp_path, capsys, path)
        assert rc == 1, text
        assert "straight_0.forecast.json" in err["message"], (text, err)


SCENE_ARRAYS = ("agents", "lanes", "gt_future", "extended_future", "agent_futures", "to_world")


def _malformed_scene_text(rs, payload) -> tuple[str, str]:
    """(edit, text) of a scene file that predict must reject: a valid scene
    payload broken by one of seven seeded edits."""
    payload = json.loads(json.dumps(payload))
    key = SCENE_ARRAYS[rs.randint(len(SCENE_ARRAYS))]
    kind = rs.randint(7)
    if kind == 0:
        text = json.dumps(payload)
        return "truncated JSON", text[: rs.randint(1, len(text))]
    if kind == 1:
        field = ("version", "target_index", "dt", key)[rs.randint(4)]
        value = [None, "1", True, {"x": 1}, "0.1", [[["1.0"]]], 1.5][rs.randint(7)]
        if field in ("dt",) + SCENE_ARRAYS and value == 1.5:
            value = [value]  # a number where an array is due, and the reverse
        payload[field] = value
        return f"{field} = {value!r}", json.dumps(payload)
    if kind == 2:
        entry = payload[key]
        while isinstance(entry[0], list):
            entry = entry[rs.randint(len(entry))]
        value = [None, "1.0", [1.0], {}][rs.randint(4)]
        entry[rs.randint(len(entry))] = value
        return f"an entry of {key} = {value!r}", json.dumps(payload)
    if kind == 3:  # JSON's non-standard literals, which json.load accepts
        literal = ["NaN", "Infinity", "-Infinity", "1e999"][rs.randint(4)]
        text = json.dumps(payload[key])
        starts = [i for i, ch in enumerate(text) if ch in "-0123456789" and text[i - 1] in "[ "]
        start = starts[rs.randint(len(starts))]
        end = start + 1
        while text[end] not in ",]":
            end += 1
        rest = json.dumps({k: v for k, v in payload.items() if k != key})
        return (f"a number of {key} = {literal}",
                rest[:-1] + f', "{key}": ' + text[:start] + literal + text[end:] + "}")
    if kind == 4:
        name = ["agent", "extended", "lane", "Kind", "futures", "dt_s"][rs.randint(6)]
        payload[name] = 1.0
        return f"unknown key {name!r}", json.dumps(payload)
    if kind == 5:
        n_agents = len(payload["agents"])
        field, value = [
            ("target_index", [-1, n_agents, n_agents + 3][rs.randint(3)]),
            ("dt", [0.0, -0.1, -1e-9][rs.randint(3)]),
            ("version", [0, 2, -1][rs.randint(3)]),
            ("extended_future", payload["gt_future"][: rs.randint(len(payload["gt_future"]))]),
            ("to_world", payload["to_world"][: rs.randint(3)]),
            ("agents", []),
        ][rs.randint(6)]
        payload[field] = value
        return f"{field} out of range", json.dumps(payload)
    if rs.randint(2):
        missing = ("agents", "lanes", "gt_future")[rs.randint(3)]
        del payload[missing]
        return f"no {missing}", json.dumps(payload)
    payload[key] = _drop_last_column(payload[key])
    return f"{key} of the wrong shape", json.dumps(payload)


def _drop_last_column(rows):
    return [_drop_last_column(row) for row in rows] if isinstance(rows[0], list) else rows[:-1]


def test_malformed_scenes_fail_predict_with_a_structured_error(tmp_path, cfg_file, capsys):
    path = tmp_path / "straight_0.json"
    save_scene(path, generate_scene("straight", seed=0))
    payload = {**json.loads(path.read_text(encoding="utf-8")), "to_world": [1.5, -2.0, 0.3]}
    assert all(key in payload for key in SCENE_ARRAYS)
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["predict", str(path), "--out", str(tmp_path / "ok"), "--config", cfg_file]) == 0
    capsys.readouterr()
    rs = np.random.RandomState(505)
    cases = [_malformed_scene_text(rs, payload) for _ in range(100)]
    # a true or false among numbers, which numpy would read as 1.0 or 0.0
    for key in SCENE_ARRAYS:
        for literal in (True, False):
            mixed = json.loads(json.dumps(payload))
            entry = mixed[key]
            while isinstance(entry[-1], list):
                entry = entry[-1]
            entry[-1] = literal
            cases.append((f"the last number of {key} = {literal}", json.dumps(mixed)))
    wrong = []
    for case, (edit, text) in enumerate(cases):
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"out{case}"
        rc = cli.main(["predict", str(path), "--out", str(out), "--config", cfg_file])
        err = capsys.readouterr().err
        error = json.loads(err.strip().splitlines()[-1]) if rc == 1 else {}
        if (rc != 1 or "Traceback" in err or error.get("error") != "SceneFormatError"
                or "straight_0.json" not in error.get("message", "") or out.exists()):
            wrong.append((edit, rc, error))
    assert wrong == []


CONFIG_FLOATS = ("resolution", "temperature", "smooth_weight", "lr", "tol",
                 "demo_horizon_factor")
CONFIG_INTS = ("rows", "cols", "anchor_row", "anchor_col", "horizon", "t_future",
               "rollouts", "modes", "hidden", "max_iters", "seed")
CONFIG_OUT_OF_RANGE = (
    "rows=2", "cols=-4", "anchor_row=32", "anchor_col=-1", "resolution=0", "resolution=-2.0",
    "horizon=0", "t_future=0", "max_iters=0", "hidden=0", "modes=0", "rollouts=3\nmodes=6",
    "lr=0", "lr=-0.1", "temperature=-1", "smooth_weight=-0.5", "tol=-1e-3",
    "demo_horizon_factor=1.2", "reward_mode=cubic", "optimizer=sgd",
)


def _malformed_config_text(rs) -> tuple[str, str]:
    """(edit, text) of a config file that predict must reject: SMALL_CFG
    broken by one of six seeded edits, its lines shuffled."""
    lines = SMALL_CFG.strip().splitlines()
    kind = rs.randint(6)
    if kind == 0:  # a line cut before its '=', and the rest of the file lost
        i = rs.randint(len(lines))
        lines = lines[:i] + [lines[i][: rs.randint(1, lines[i].index("="))]]
        edit = f"cut at {lines[-1]!r}"
    elif kind == 1:
        if rs.randint(2):
            name = CONFIG_INTS[rs.randint(len(CONFIG_INTS))]
            edit = f"{name}={['1.5', 'abc', '', '2e3', '0x10', 'True'][rs.randint(6)]}"
        else:
            name = CONFIG_FLOATS[rs.randint(len(CONFIG_FLOATS))]
            edit = f"{name}={['abc', '', '1,5', '0.1.2', 'None'][rs.randint(5)]}"
    elif kind == 2:
        names = CONFIG_FLOATS + CONFIG_INTS
        name = names[rs.randint(len(names))]
        values = ["nan", "-inf"] if name == "tol" else ["nan", "inf", "-inf", "1e999"]
        edit = f"{name}={values[rs.randint(len(values))]}"
    elif kind == 3:
        edit = f"{['horizn', 'Rows', 'alpha', 'seed_', 'k'][rs.randint(5)]}=3"
    elif kind == 4:
        edit = CONFIG_OUT_OF_RANGE[rs.randint(len(CONFIG_OUT_OF_RANGE))]
    else:  # a key set twice, first out of range and then valid
        bad = CONFIG_OUT_OF_RANGE[rs.randint(len(CONFIG_OUT_OF_RANGE))].splitlines()[0]
        key = bad.split("=")[0]
        good = next((line for line in lines if line.startswith(key + "=")),
                    f"{key}={getattr(RunConfig(), key)}")
        edit = f"{bad}\n{good}"
    if kind:  # the edit replaces the lines of the keys it sets
        keys = {line.split("=")[0] for line in edit.splitlines()}
        lines = [line for line in lines if line.split("=")[0] not in keys] + [edit]
    rs.shuffle(lines)
    return edit, "\n".join(lines) + "\n"


def test_malformed_configs_fail_predict_with_a_structured_error(tmp_path, scene_file, capsys):
    path = tmp_path / "bad.cfg"
    rs = np.random.RandomState(606)
    wrong = []
    for case in range(100):
        edit, text = _malformed_config_text(rs)
        path.write_text(text, encoding="utf-8")
        out = tmp_path / f"out{case}"
        rc = cli.main(["predict", scene_file, "--out", str(out), "--config", str(path)])
        err = capsys.readouterr().err
        error = json.loads(err.strip().splitlines()[-1]) if rc == 1 else {}
        if rc != 1 or "Traceback" in err or error.get("error") != "ValueError" or out.exists():
            wrong.append((edit, rc, error))
    assert wrong == []
