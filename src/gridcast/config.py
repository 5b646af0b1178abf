"""Run configuration: defaults, flat key=value files, CLI overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .grid import CellIndex, GridSpec

DEMO_HORIZON_FACTORS = (1.0, 1.5, 2.0)


@dataclass(frozen=True)
class RunConfig:
    rows: int = 128
    cols: int = 128
    resolution: float = 1.0
    anchor_row: int = 32
    anchor_col: int = 64
    horizon: int = 32
    t_future: int = 30
    rollouts: int = 128
    modes: int = 6
    temperature: float = 1.0
    smooth_weight: float = 4.0
    reward_mode: str = "two_layer"
    hidden: int = 16
    optimizer: str = "adam"
    lr: float = 0.05
    max_iters: int = 80
    tol: float = 1e-4
    demo_horizon_factor: float = 1.0
    seed: int = 0

    def grid_spec(self) -> GridSpec:
        return GridSpec(rows=self.rows, cols=self.cols, resolution=self.resolution,
                        anchor=CellIndex(self.anchor_row, self.anchor_col))

    def validate(self) -> "RunConfig":
        self.grid_spec()
        if self.demo_horizon_factor not in DEMO_HORIZON_FACTORS:
            raise ValueError(
                f"demo_horizon_factor must be one of {DEMO_HORIZON_FACTORS}, "
                f"got {self.demo_horizon_factor}")
        if self.rollouts < self.modes:
            raise ValueError(f"rollouts ({self.rollouts}) must be >= modes ({self.modes})")
        for name in ("lr", "temperature"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite positive number, got {value}")
        for name in ("horizon", "t_future", "max_iters", "hidden", "modes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.smooth_weight) and self.smooth_weight >= 0.0):
            raise ValueError(f"smooth_weight must be finite and >= 0, got {self.smooth_weight}")
        if not self.tol >= 0.0:  # NaN fails too; inf means a single step
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.reward_mode not in ("linear", "two_layer"):
            raise ValueError(f"unknown reward_mode {self.reward_mode!r}")
        if self.optimizer != "adam":  # the one optimizer; the key stays for saved configs
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def load_config(path) -> RunConfig:
    """Flat UTF-8 key=value file; '#' starts a comment; unknown or repeated keys rejected."""
    overrides, seen = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}: line {lineno}: key {key!r} repeats line {seen[key]}")
            seen[key] = lineno
            try:
                overrides[key] = _parse_value(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return replace(RunConfig(), **overrides).validate()


def config_to_text(cfg: RunConfig) -> str:
    """Deterministic key=value dump, used to echo the effective configuration."""
    lines = [f"{f.name}={getattr(cfg, f.name)!r}".replace("'", "")
             for f in fields(RunConfig)]
    return "\n".join(sorted(lines)) + "\n"
