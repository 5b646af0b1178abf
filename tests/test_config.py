import math

import pytest

from gridcast.config import RunConfig, config_to_text, load_config


def test_defaults_valid():
    cfg = RunConfig().validate()
    spec = cfg.grid_spec()
    assert spec.rows == 128 and spec.cols == 128
    assert spec.anchor.row == 32 and spec.anchor.col == 64


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "rows=48\n"
        "cols = 48   # inline comment\n"
        "resolution=2.0\n"
        "anchor_row=12\n"
        "anchor_col=24\n"
        "horizon=17\n"
        "\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.rows == 48 and cfg.cols == 48
    assert cfg.resolution == 2.0
    assert cfg.horizon == 17
    assert cfg.modes == 6  # untouched default


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_knob=3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(path)


def test_load_config_rejects_a_repeated_key(tmp_path):
    # a valid last value must not hide an invalid first one
    path = tmp_path / "twice.cfg"
    path.write_text("tol=-1\nrows=48\n# tol again\ntol=1e-4\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: line 4: key 'tol' repeats line 1"


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("rows=twelve\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_config(path)


def test_validate_rejects_bad_factor():
    with pytest.raises(ValueError, match="demo_horizon_factor"):
        RunConfig(demo_horizon_factor=1.25).validate()


def test_validate_rejects_rollouts_below_modes():
    with pytest.raises(ValueError):
        RunConfig(rollouts=4, modes=6).validate()


@pytest.mark.parametrize("field, value", [
    ("lr", -5.0), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
    ("temperature", math.nan), ("temperature", 0.0), ("temperature", math.inf),
    ("max_iters", 0), ("hidden", 0), ("modes", 0),
    ("smooth_weight", -1.0), ("smooth_weight", math.nan), ("smooth_weight", math.inf),
    ("tol", -1e-4), ("tol", math.nan), ("resolution", math.inf),
    ("optimizer", "gd"), ("optimizer", "sgd"), ("reward_mode", "cubic"),
])
def test_validate_rejects_meaningless_training_values(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value}).validate()


def test_validate_accepts_infinite_tol():
    assert RunConfig(tol=math.inf).validate().tol == math.inf


def test_config_text_deterministic_and_sorted():
    text = config_to_text(RunConfig())
    assert text == config_to_text(RunConfig())
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert "rows=128" in lines
