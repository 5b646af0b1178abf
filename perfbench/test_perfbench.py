"""The benchmark's own tests: trace accounting, output checks, repeatable counts.

    python3 -m pytest -q perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from gridcast import irl, occupancy  # noqa: E402

# small enough to trace in well under a second per scene
TINY = replace(workloads.ABLATION_CFG, rows=24, cols=24, anchor_row=6, anchor_col=12,
               horizon=8, rollouts=16, modes=3, max_iters=4)

# traced layers a workload's scenes never call
NOT_CALLED = {
    "ablate_small": {"scene.load_scene", "rollout.write_forecast"},
    "baseline_batch": {fn for fn in tracer.LAYERS
                       if fn.startswith(("irl.", "occupancy."))} | {
        "scene.rasterize_features", "pipeline.build_demos", "rollout.gather_path_features"},
}


def _items(tmp_path, wl, count=1, seed=5):
    paths = workloads.write_scene_set(tmp_path / "scenes", seed, count)
    return workloads.scene_inputs(paths, tmp_path / "forecasts", wl.preload)


def _traced(tmp_path, wl, count=1):
    tr = tracer.Tracer()
    outputs = []
    items = _items(tmp_path, wl, count)
    with tracer.installed(tr):
        for item in items:
            outputs += tr.run("bench.scene", item.index, wl.run_scene, item, wl.cfg)
    return tr, outputs


@pytest.fixture
def ablate_tiny():
    return replace(workloads.WORKLOADS["ablate_small"], cfg=TINY)


@pytest.mark.parametrize("name", ["ablate_small", "baseline_batch"])
def test_self_times_add_up_to_scene_wall_time(tmp_path, name):
    wl = replace(workloads.WORKLOADS[name], cfg=TINY)
    tr, _ = _traced(tmp_path, wl)
    roots = [s for s in tr.spans if s[tracer.PARENT] is None]
    assert [s[tracer.NAME] for s in roots] == ["bench.scene"]
    assert {s[tracer.SCENE] for s in tr.spans} == {0}
    wall = roots[0][tracer.END] - roots[0][tracer.START]
    selfs = tracer.self_times(tr.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(wall, abs=1e-9)
    # every layer the workload calls shows up in its trace
    called = set(tracer.LAYERS) - NOT_CALLED[name]
    assert {s[tracer.NAME] for s in tr.spans} == called | {"bench.scene"}


def test_wrappers_cover_names_bound_at_import_and_are_restored(tmp_path, ablate_tiny):
    original = irl.expected_visitation
    assert occupancy.expected_visitation is original
    tr, _ = _traced(tmp_path, ablate_tiny)
    assert irl.expected_visitation is original
    assert occupancy.expected_visitation is original
    parents = {tr.spans[s[tracer.PARENT]][tracer.NAME]
               for s in tr.spans if s[tracer.NAME] == "irl.expected_visitation"}
    assert parents == {"irl.irl_loss_and_grad", "occupancy.predict_occupancy"}


def test_output_check_rejects_corrupted_forecasts(tmp_path, ablate_tiny):
    item = _items(tmp_path, ablate_tiny)[0]
    out = ablate_tiny.run_scene(item, TINY)[-1]
    assert out.occupancy is not None
    assert workloads.check_output(out, TINY) == []

    def problems(**changes):
        fc = replace(out.forecast, **{k: v for k, v in changes.items() if k != "occupancy"})
        bad = replace(out, forecast=fc, occupancy=changes.get("occupancy", out.occupancy))
        return workloads.check_output(bad, TINY)

    f = out.forecast
    assert problems(probs=f.probs * 1.001)
    assert problems(probs=f.probs + np.array([1e-11] + [0.0] * (len(f.probs) - 1)))
    nan_traj = f.trajectories.copy()
    nan_traj[0, 3, 1] = np.nan
    assert problems(trajectories=nan_traj, offsets=nan_traj - f.anchors)
    assert problems(trajectories=f.trajectories[:, :-1])
    shifted = f.offsets.copy()
    shifted[1, 2, 0] += 1e-12
    assert problems(offsets=shifted)
    ogm = out.occupancy.copy()
    ogm[0, 0, 4] += 1e-6
    assert problems(occupancy=ogm)


def test_counts_and_digest_repeat_exactly(tmp_path, ablate_tiny):
    runs = []
    for rep in range(2):
        tr, outs = _traced(tmp_path / str(rep), ablate_tiny, count=2)
        layers = tracer.layer_metrics(tr.spans)
        counts = {k: v for k, (v, _) in layers.items()
                  if k.rsplit(".", 1)[1] in tracer.COUNT_STATS}
        hashes = [workloads.output_hash(0, o) for o in outs]
        qual = workloads.quality(outs, TINY.modes)
        runs.append((counts, workloads.digest(hashes, qual, counts)))
    assert runs[0] == runs[1]
    counts = runs[0][0]
    assert counts["irl.train_irl.iterations"] == 3 * TINY.max_iters
    # one soft value iteration per training step plus one for the final policy
    assert counts["irl.soft_value_iteration.calls"] == 3 * (TINY.max_iters + 1)
    assert counts["rollout.path_to_trajectory.calls"] == 4 * TINY.rollouts


def test_benchmark_json_lists_every_emitted_metric():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()]
    expected = [{"name": f"{fn}.{stat}", "unit": unit, "better": better}
                for fn, stat, unit, better in tracer.LAYER_METRICS]
    expected.append({"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"})
    assert spec["per_layer"] == expected
