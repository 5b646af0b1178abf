"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s or on
failure). Criteria 7-9 share one 300-scene paired experiment via a session
fixture; its grid configuration trades cell size for single-core runtime and
is recorded in the printed detail.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gridcast import cli, irl, metrics, pipeline, rollout
from gridcast.config import RunConfig
from gridcast.grid import CellIndex, GridSpec
from gridcast.occupancy import focal_bce, rasterize_gt_ogm, uniform_occupancy
from gridcast.oracle import enumerate_paths
from gridcast.rng import uniform as rng_uniform
from gridcast.scene import SCENE_KINDS, generate_scene, save_scene


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _rollout_demo(policy, reward, seed):
    batch = rollout.sample_rollouts(policy, reward, 1, seed)
    return irl.Demonstration(
        cells=tuple(CellIndex(int(r), int(c)) for r, c in batch.cells[0]))


# ---------------------------------------------------------------------------
# 1. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence():
    rs = np.random.RandomState(101)
    cases = [(5, 5, 4)] * 20 + [(7, 7, 6)] * 5
    t0 = time.monotonic()
    worst_marginal = 0.0
    worst_nll = 0.0
    for i, (rows, cols, horizon) in enumerate(cases):
        start = CellIndex(int(rs.randint(rows)), int(rs.randint(cols)))
        spec = GridSpec(rows=rows, cols=cols, resolution=1.0, anchor=start)
        reward = rs.uniform(-1.0, 0.0, (rows, cols))
        policy = irl.soft_value_iteration(reward, spec, horizon)[1]
        visit = irl.expected_visitation(policy)
        dist = enumerate_paths(reward, spec, start, horizon)
        worst_marginal = max(worst_marginal,
                             float(np.abs(visit - dist.marginals()).max()))
        demo = _rollout_demo(policy, reward, seed=i)
        nll, _, _ = irl.irl_loss_and_grad(reward, irl.expert_visitation([demo], spec, horizon),
                                          spec, horizon)
        worst_nll = max(worst_nll, abs(nll - dist.nll(demo.cells)))
    elapsed = time.monotonic() - t0
    ok = worst_marginal <= 1e-9 and worst_nll <= 1e-9 and elapsed < 5.0
    _criterion(1, "planner matches exhaustive enumeration within 1e-9", ok,
               f"marginal {worst_marginal:.2e}, nll {worst_nll:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------

def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_criterion_02_gradient_correctness():
    rs = np.random.RandomState(202)
    eps = 1e-5
    t0 = time.monotonic()
    worst = 0.0
    for instance in range(5):
        rows = cols = 5
        horizon = 3
        start = CellIndex(2, 2)
        spec = GridSpec(rows=rows, cols=cols, resolution=1.0, anchor=start)
        reward = rs.uniform(-1.0, 0.0, (rows, cols))
        policy = irl.soft_value_iteration(reward, spec, horizon)[1]
        demos = [_rollout_demo(policy, reward, seed=10 * instance + j)
                 for j in range(2)]
        expert = irl.expert_visitation(demos, spec, horizon)
        _, grad, _ = irl.irl_loss_and_grad(reward, expert, spec, horizon)
        for _ in range(10):
            r, c = rs.randint(rows), rs.randint(cols)
            up, dn = reward.copy(), reward.copy()
            up[r, c] += eps
            dn[r, c] -= eps
            nup, _, _ = irl.irl_loss_and_grad(up, expert, spec, horizon)
            ndn, _, _ = irl.irl_loss_and_grad(dn, expert, spec, horizon)
            worst = max(worst, _rel_err(float(grad[r, c]), (nup - ndn) / (2 * eps)))

        feats = rs.uniform(-1.0, 1.0, (rows, cols, 4))
        g = rs.uniform(-1.0, 1.0, (rows, cols))
        for mode in ("linear", "two_layer"):
            if mode == "linear":
                params = irl.RewardMapParams(mode="linear", w=rs.uniform(-1, 1, 4))
            else:
                params = irl.RewardMapParams.two_layer(4, hidden=6, seed=instance)
            analytic = irl.reward_backward(feats, params, g).as_vector()
            vec = params.as_vector()

            def objective(v):
                p = params.with_vector(v)
                if mode == "linear":
                    raw = feats @ p.w
                else:
                    raw = np.maximum(feats @ p.w1.T + p.b1, 0.0) @ p.w2
                return float((g * raw).sum())

            for i in rs.choice(vec.size, size=min(10, vec.size), replace=False):
                up, dn = vec.copy(), vec.copy()
                up[i] += eps
                dn[i] -= eps
                fd = (objective(up) - objective(dn)) / (2 * eps)
                worst = max(worst, _rel_err(float(analytic[i]), fd))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    _criterion(2, "analytic gradients match central finite differences", ok,
               f"worst rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3-4. IRL recovery and MaxEnt fixed point
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def recovery_run():
    rows = cols = 9
    horizon = 8
    start = CellIndex(4, 4)
    spec = GridSpec(rows=rows, cols=cols, resolution=1.0, anchor=start)
    true_reward = rng_uniform(12345, 77, np.arange(rows * cols)).reshape(rows, cols) * -1.0
    true_policy = irl.soft_value_iteration(true_reward, spec, horizon)[1]
    batch = rollout.sample_rollouts(true_policy, true_reward, 16, seed=99)
    demos = [irl.Demonstration(cells=tuple(CellIndex(int(r), int(c)) for r, c in path))
             for path in batch.cells]
    features = np.eye(rows * cols).reshape(rows, cols, rows * cols)

    t0 = time.monotonic()
    _, diag, _, policy = irl.train_irl(
        features, irl.expert_visitation(demos, spec, horizon), spec,
        RunConfig(rows=rows, cols=cols, resolution=1.0, anchor_row=start.row,
                  anchor_col=start.col, horizon=horizon, reward_mode="linear",
                  optimizer="adam", lr=0.1, max_iters=300, tol=0.0))
    elapsed = time.monotonic() - t0

    learned = irl.expected_visitation(policy)[1:].sum(axis=0)
    expert = irl.expert_visitation(demos, spec, horizon)
    return {"horizon": horizon, "diag": diag, "elapsed": elapsed,
            "learned": learned, "expert": expert}


def test_criterion_03_irl_recovery(recovery_run):
    r = recovery_run
    tv = 0.5 * float(np.abs(r["learned"] / r["horizon"] - r["expert"] / r["horizon"]).sum())
    hist = r["diag"].nll_history
    worst_rise = max((hist[i + 1] - hist[i] for i in range(10, len(hist) - 1)),
                     default=0.0)
    ok = (tv <= 0.05 and worst_rise <= 1e-6 and r["diag"].iterations <= 300
          and r["elapsed"] < 60.0)
    _criterion(3, "expert visitations recovered from 16 sampled demonstrations", ok,
               f"TV {tv:.4f}, worst nll rise {worst_rise:.1e}, "
               f"{r['diag'].iterations} iters, {r['elapsed']:.1f}s")


def test_criterion_04_maxent_fixed_point(recovery_run):
    gap = float(np.abs(recovery_run["learned"] - recovery_run["expert"]).max())
    _criterion(4, "feature-matching fixed point: max |E[mu] - mu_hat| <= 1e-3",
               gap <= 1e-3, f"max gap {gap:.2e}")


# ---------------------------------------------------------------------------
# 5. conservation and simplex invariants
# ---------------------------------------------------------------------------

def test_criterion_05_conservation_invariants():
    rs = np.random.RandomState(505)
    t0 = time.monotonic()
    worst_simplex = 0.0
    worst_mass = 0.0
    for _ in range(1000):
        rows, cols = rs.randint(3, 9, size=2)
        spec = GridSpec(rows=int(rows), cols=int(cols), resolution=1.0,
                        anchor=CellIndex(int(rs.randint(rows)), int(rs.randint(cols))))
        horizon = int(rs.randint(1, 7))
        reward = rs.uniform(-3.0, 0.0, (rows, cols))
        policy = irl.soft_value_iteration(reward, spec, horizon)[1]
        for t in range(horizon):
            worst_simplex = max(worst_simplex,
                                float(np.abs(policy(t).sum(axis=-1) - 1.0).max()))
        visit = irl.expected_visitation(policy)
        worst_mass = max(worst_mass,
                         float(np.abs(visit.sum(axis=(1, 2)) - 1.0).max()))
    elapsed = time.monotonic() - t0
    ok = worst_simplex <= 1e-12 and worst_mass <= 1e-9 and elapsed < 30.0
    _criterion(5, "1000 randomized instances conserve policy and visitation mass", ok,
               f"simplex {worst_simplex:.1e}, mass {worst_mass:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. metric formula checks
# ---------------------------------------------------------------------------

def test_criterion_06_metric_formulas():
    p = 1.0 - math.sqrt(0.6218)
    consistency = abs(metrics.brier_min_fde(1.2048, p) - 1.8266)

    boundary_ok = (metrics.miss_rate([2.0]) == 0.0 and metrics.miss_rate([2.0 + 1e-12]) == 1.0)

    gt = np.column_stack([np.arange(1.0, 11.0), np.zeros(10)])
    tie_a = gt.copy()
    tie_a[-1] += [0.0, 1.0]
    tie_b = gt.copy()
    tie_b[-1] += [0.0, -1.0]
    tie_ok = metrics.best_mode(np.stack([tie_a, tie_b]), gt) == 0

    rs = np.random.RandomState(606)
    mono_ok = True
    for _ in range(50):
        base = gt[None] + rs.uniform(-4, 4, size=(3, 10, 2))
        extra = np.vstack([base, gt[None] + rs.uniform(-4, 4, size=(1, 10, 2))])
        mono_ok &= metrics.min_ade(extra, gt) <= metrics.min_ade(base, gt)
        mono_ok &= metrics.min_fde(extra, gt) <= metrics.min_fde(base, gt)

    ok = consistency <= 1e-4 and boundary_ok and tie_ok and mono_ok
    _criterion(6, "score formulas: reference-row consistency, strict MR, ties, K-monotonicity",
               ok, f"brier-minFDE consistency gap {consistency:.2e}")


# ---------------------------------------------------------------------------
# 7-9. paired reasoning experiment (shared fixture)
# ---------------------------------------------------------------------------

SCENES_PER_KIND = 50

ABLATION_CFG = RunConfig(
    rows=40, cols=40, resolution=2.0, anchor_row=10, anchor_col=20,
    horizon=16, rollouts=96, modes=6, temperature=1.0, smooth_weight=4.0,
    reward_mode="two_layer", hidden=16, optimizer="adam", lr=0.1,
    max_iters=150, tol=1e-6, seed=0)


@pytest.fixture(scope="session")
def ablation_run():
    cfg = ABLATION_CFG.validate()
    spec = cfg.grid_spec()
    out = {"vanilla": [], "factor10": [], "factor20": [],
           "mass_gap": 0.0, "focal_wins": 0, "n": 0,
           "t_pair": 0.0, "t_factor20": 0.0}
    for k_idx, kind in enumerate(SCENE_KINDS):
        for i in range(SCENES_PER_KIND):
            scene = generate_scene(kind, seed=1000 * k_idx + i)
            key = 100 * k_idx + i

            t0 = time.monotonic()
            vanilla = pipeline.predict_scene(scene, cfg, reasoning=False, stream_key=key)
            full = pipeline.predict_scene(scene, cfg, reasoning=True, stream_key=key)
            out["t_pair"] += time.monotonic() - t0

            t0 = time.monotonic()
            long_sup = pipeline.predict_scene(
                scene, replace(cfg, demo_horizon_factor=2.0), reasoning=True, stream_key=key)
            out["t_factor20"] += time.monotonic() - t0

            out["vanilla"].append(pipeline.score_prediction(vanilla))
            out["factor10"].append(pipeline.score_prediction(full))
            out["factor20"].append(pipeline.score_prediction(long_sup))

            ogm_pred = pipeline.predicted_occupancy(full, cfg)
            out["mass_gap"] = max(out["mass_gap"],
                                  float(np.abs(ogm_pred.sum(axis=(0, 1)) - 1.0).max()))
            # single-agent comparison: target-only GT for the target-only predictor
            gt_ogm = rasterize_gt_ogm(replace(full.scene, agent_futures=None), spec)
            if focal_bce(ogm_pred, gt_ogm) < focal_bce(uniform_occupancy(spec, cfg.t_future), gt_ogm):
                out["focal_wins"] += 1
            out["n"] += 1
    return out


def test_criterion_07_reasoning_ablation_direction(ablation_run):
    r = ablation_run
    van = metrics.aggregate(r["vanilla"], k=ABLATION_CFG.modes)
    full = metrics.aggregate(r["factor10"], k=ABLATION_CFG.modes)
    gain_bmf = (van.brier_min_fde - full.brier_min_fde) / van.brier_min_fde
    gain_brier = (van.brier - full.brier) / van.brier
    ok = (r["n"] >= 300 and gain_bmf >= 0.10 and gain_brier >= 0.10
          and r["t_pair"] < 900.0)
    _criterion(7, "reasoning beats the no-reasoning baseline by >= 10% relative", ok,
               f"n={r['n']}, brier-minFDE {van.brier_min_fde:.3f}->{full.brier_min_fde:.3f} "
               f"({gain_bmf:+.1%}), Brier {van.brier:.3f}->{full.brier:.3f} "
               f"({gain_brier:+.1%}), paired runs {r['t_pair']:.0f}s single-threaded")


def test_criterion_08_horizon_supervision_direction(ablation_run):
    r = ablation_run
    short = metrics.aggregate(r["factor10"], k=ABLATION_CFG.modes)
    long_sup = metrics.aggregate(r["factor20"], k=ABLATION_CFG.modes)
    improvement = short.brier - long_sup.brier
    ok = long_sup.brier <= short.brier
    _criterion(8, "doubling the supervision horizon does not degrade the Brier score", ok,
               f"Brier {short.brier:.4f} -> {long_sup.brier:.4f} "
               f"(mean improvement {improvement:+.4f})")


def test_criterion_09_occupancy_sanity(ablation_run):
    r = ablation_run
    win_rate = r["focal_wins"] / r["n"]
    ok = r["mass_gap"] <= 1e-9 and win_rate >= 0.95
    _criterion(9, "predicted occupancy conserves mass and beats the uniform baseline", ok,
               f"max mass gap {r['mass_gap']:.1e}, focal win rate {win_rate:.1%}")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    scene_path = tmp_path / "scene.json"
    save_scene(scene_path, generate_scene("intersection_right", seed=77))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "rows=40\ncols=40\nresolution=2.0\nanchor_row=10\nanchor_col=20\n"
        "horizon=17\nrollouts=48\nmax_iters=40\nlr=0.1\ntol=1e-6\n",
        encoding="utf-8")
    blobs = []
    for run, jobs in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / run
        rc = cli.main(["predict", str(scene_path), "--out", str(out),
                       "--config", str(cfg_path), "--seed", "3", "--jobs", jobs])
        assert rc == 0
        blobs.append((out / "scene.forecast.json").read_bytes()
                     + (out / "config_used.cfg").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _criterion(10, "repeated cmd_predict runs are byte-identical across --jobs", ok,
               f"{len(blobs[0])} bytes compared")
