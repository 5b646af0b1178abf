"""In-memory span tracer that wraps the library's public functions.

The benchmark installs a wrapper around each traced function for the length
of a traced run and restores the originals afterwards. A function bound by
name into another module at import time (``occupancy`` imports
``expected_visitation`` from ``irl``) is replaced in every namespace that
holds it, so no call escapes the trace.

A span is ``[name, start, end, parent, scene, counts]``: ``parent`` is the
index of the enclosing span (or None) and ``counts`` is what the function's
count hook read from its return value. Self time is a span's duration minus
the durations of its direct children; calls are strictly nested on one
thread, so the children never overlap and the self times of all spans under
a root add up to the root's duration.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, SCENE, COUNTS = range(6)


def array_bytes(value) -> int:
    """Bytes held by the ndarrays in a return value (tuples, lists, dataclasses)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(array_bytes(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(array_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def _train_counts(result) -> dict:
    diag = result[1]
    return {"iterations": diag.iterations, "converged": int(diag.converged)}


def _bytes_counts(result) -> dict:
    return {"bytes_computed": array_bytes(result)}


def _cluster_counts(result) -> dict:
    return {"iters": result.n_iter}


# Traced functions as "<module>.<function>" under the gridcast package, each
# with the hook that reads its counts off the return value.
LAYERS = {
    "scene.load_scene": None,
    "scene.normalize_to_target": None,
    "scene.rasterize_features": None,
    "irl.train_irl": _train_counts,
    "irl.irl_loss_and_grad": None,
    "irl.soft_value_iteration": _bytes_counts,
    "irl.expected_visitation": None,
    "irl.expert_visitation": None,
    "irl.reward_forward": None,
    "irl.reward_backward": None,
    "pipeline.predict_scene": None,
    "pipeline.build_demos": None,
    "pipeline.straight_rollout_policy": _bytes_counts,
    "rollout.sample_rollouts": None,
    "rollout.gather_path_features": None,
    "rollout.path_to_trajectory": None,
    "rollout.cluster_proposals": _cluster_counts,
    "rollout.refine_offsets": None,
    "rollout.score_modes": None,
    "rollout.write_forecast": None,
    "occupancy.predict_occupancy": None,
    "occupancy.focal_bce": None,
    "metrics.score_forecast": None,
}

# Per-layer metrics: (function, statistic, unit, better). Statistics are
# medians over scenes of a per-scene value, except converged_frac, which is
# converged train_irl calls over all train_irl calls in the run.
LAYER_METRICS = (
    ("scene.load_scene", "s", "s", "lower"),
    ("scene.normalize_to_target", "s", "s", "lower"),
    ("scene.rasterize_features", "s", "s", "lower"),
    ("irl.train_irl", "s", "s", "lower"),
    ("irl.train_irl", "self_s", "s", "lower"),
    ("irl.train_irl", "iterations", "count", "lower"),
    ("irl.train_irl", "converged_frac", "ratio", "higher"),
    ("irl.irl_loss_and_grad", "self_s", "s", "lower"),
    ("irl.soft_value_iteration", "s", "s", "lower"),
    ("irl.soft_value_iteration", "calls", "count", "lower"),
    ("irl.soft_value_iteration", "bytes_computed", "bytes", "lower"),
    ("irl.expected_visitation", "s", "s", "lower"),
    ("irl.expected_visitation", "calls", "count", "lower"),
    ("irl.expert_visitation", "s", "s", "lower"),
    ("irl.reward_forward", "s", "s", "lower"),
    ("irl.reward_backward", "s", "s", "lower"),
    ("pipeline.predict_scene", "self_s", "s", "lower"),
    ("pipeline.build_demos", "s", "s", "lower"),
    ("pipeline.straight_rollout_policy", "s", "s", "lower"),
    ("pipeline.straight_rollout_policy", "bytes_computed", "bytes", "lower"),
    ("rollout.sample_rollouts", "s", "s", "lower"),
    ("rollout.gather_path_features", "s", "s", "lower"),
    ("rollout.path_to_trajectory", "s", "s", "lower"),
    ("rollout.path_to_trajectory", "calls", "count", "lower"),
    ("rollout.cluster_proposals", "s", "s", "lower"),
    ("rollout.cluster_proposals", "iters", "count", "lower"),
    ("rollout.refine_offsets", "s", "s", "lower"),
    ("rollout.score_modes", "s", "s", "lower"),
    ("rollout.write_forecast", "s", "s", "lower"),
    ("occupancy.predict_occupancy", "self_s", "s", "lower"),
    ("occupancy.focal_bce", "s", "s", "lower"),
    ("metrics.score_forecast", "s", "s", "lower"),
)

# statistics that are counts and must repeat exactly between runs
COUNT_STATS = ("calls", "iterations", "bytes_computed", "iters")


class Tracer:
    """Collects spans in memory; ``scene`` tags every span opened while set."""

    def __init__(self):
        self.spans: list[list] = []
        self.scene = None
        self._stack: list[int] = []

    def call(self, name, fn, count, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.scene, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            rec[COUNTS] = count(result)
        return result

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, count, args, kwargs)
        return traced

    def run(self, name, scene, fn, *args, **kwargs):
        """Run ``fn`` as the root span of ``scene``; every span opened inside
        carries the scene tag. Returns ``fn``'s result."""
        prev, self.scene = self.scene, scene
        try:
            return self.call(name, fn, None, args, kwargs)
        finally:
            self.scene = prev


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of each layer function by a traced wrapper.

    Scans all loaded gridcast modules for attributes that are the
    original function object, so names imported with ``from x import f``
    are covered. A layer missing from the library is skipped. Everything is
    restored on exit.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "gridcast" or n.startswith("gridcast."))]
    patched = []
    try:
        for qualname, count in LAYERS.items():
            mod_name, fn_name = qualname.split(".")
            home = sys.modules.get(f"gridcast.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = tracer.wrap(qualname, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield patched
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Per span: its duration minus its direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def per_scene_totals(spans) -> dict:
    """{scene: {function: {"s", "self_s", "calls", <count keys>}}} summed per scene."""
    selfs = self_times(spans)
    totals: dict = {}
    for s, self_s in zip(spans, selfs):
        fn = totals.setdefault(s[SCENE], {}).setdefault(
            s[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0})
        fn["s"] += s[END] - s[START]
        fn["self_s"] += self_s
        fn["calls"] += 1
        for key, value in (s[COUNTS] or {}).items():
            fn[key] = fn.get(key, 0) + value
    return totals


def layer_metrics(spans) -> dict:
    """Every per-layer metric's value over the traced scenes.

    A function that a workload never calls reports 0, which is what it cost.
    """
    totals = per_scene_totals(spans)
    scenes = [tag for tag in totals if tag is not None]
    out = {}
    for fn, stat, unit, _ in LAYER_METRICS:
        if stat == "converged_frac":
            runs = [s for s in spans if s[NAME] == fn and s[COUNTS]]
            value = (sum(s[COUNTS]["converged"] for s in runs) / len(runs)) if runs else 0.0
        else:
            per_scene = [totals[tag].get(fn, {}).get(stat, 0) for tag in scenes]
            value = statistics.median(per_scene) if per_scene else 0
            if stat in COUNT_STATS:
                value = int(value) if float(value).is_integer() else float(value)
        out[f"{fn}.{stat}"] = (value, unit)
    return out


def spans_to_json(spans) -> list[dict]:
    return [{"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "scene": s[SCENE], "counts": s[COUNTS]} for s in spans]
