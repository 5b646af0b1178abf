import tracemalloc

import numpy as np
import pytest

from gridcast import irl, pipeline, rng, rollout
from gridcast.config import RunConfig
from gridcast.grid import (
    ACTION_OFFSETS,
    ACTIONS,
    N_ACTIONS,
    CellIndex,
    GridSpec,
    cell_to_world,
    reachable_box,
)
from gridcast.irl import Policy, soft_value_iteration
from gridcast.rollout import (
    KMEANS_MAX_ITER,
    KMEANS_SHIFT_TOL,
    cluster_proposals,
    forecast_to_payload,
    Forecast,
    gather_path_features,
    path_polylines,
    path_to_trajectory,
    refine_offsets,
    sample_rollouts,
    score_modes,
    write_forecast,
)
from gridcast.scene import SCENE_KINDS, generate_scene
from test_irl import one_hot_policy
from test_scene import streamed_json


def spec_of(rows=21, cols=21, anchor=(10, 10)):
    return GridSpec(rows=rows, cols=cols, resolution=1.0, anchor=CellIndex(*anchor))


def uniform_reward_policy(spec, horizon):
    reward = np.zeros((spec.rows, spec.cols))
    return soft_value_iteration(reward, spec, horizon)[1]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_deterministic_policy_identical_paths():
    spec = spec_of()
    horizon = 5
    policy = one_hot_policy(spec, ACTIONS.index((1, 0)), horizon)
    reward = np.zeros((spec.rows, spec.cols))
    batch = sample_rollouts(policy, reward, 16, seed=0)
    assert np.all(batch.cells == batch.cells[0])
    assert batch.cells[0, -1, 0] == 15


def test_rollouts_reproducible():
    spec = spec_of()
    policy = uniform_reward_policy(spec, 6)
    reward = np.zeros((21, 21))
    a = sample_rollouts(policy, reward, 32, seed=9)
    b = sample_rollouts(policy, reward, 32, seed=9)
    np.testing.assert_array_equal(a.cells, b.cells)
    np.testing.assert_array_equal(a.path_rewards, b.path_rewards)
    c = sample_rollouts(policy, reward, 32, seed=10)
    assert not np.array_equal(a.cells, c.cells)


def test_uniform_policy_first_step_frequencies():
    # 90000 rollouts: first-step counts stay inside 3-sigma binomial bands
    spec = spec_of()
    policy = uniform_reward_policy(spec, 1)
    reward = np.zeros((21, 21))
    batch = sample_rollouts(policy, reward, 90000, seed=123)
    n = 90000
    p = 1.0 / 9.0
    sigma = np.sqrt(n * p * (1 - p))
    offsets = batch.cells[:, 1, :] - np.array([10, 10])
    for dr, dc in ACTIONS:
        count = int(np.sum((offsets[:, 0] == dr) & (offsets[:, 1] == dc)))
        assert abs(count - n * p) < 3 * sigma


def test_path_rewards_accumulate_entered_cells():
    spec = spec_of()
    horizon = 4
    policy = one_hot_policy(spec, ACTIONS.index((1, 0)), horizon)
    reward = np.full((spec.rows, spec.cols), -0.5)
    batch = sample_rollouts(policy, reward, 3, seed=0)
    np.testing.assert_allclose(batch.path_rewards, -0.5 * horizon)


def test_rollouts_reject_a_reward_off_the_policy_grid():
    # the default config's 65x65 box policy sampled with the 128x128 reward
    spec = GridSpec(rows=128, cols=128, resolution=1.0, anchor=CellIndex(32, 64))
    box, window = reachable_box(spec, 32)
    policy = one_hot_policy(box, ACTIONS.index((1, 0)), 32)
    reward = np.zeros((spec.rows, spec.cols))
    with pytest.raises(ValueError, match=r"\(128, 128\).*\(65, 65\)"):
        sample_rollouts(policy, reward, 4, seed=0)
    batch = sample_rollouts(policy, reward[window], 4, seed=0)
    assert batch.cells[0, -1, 0] == box.anchor.row + 32


def test_gather_features_matches_direct_indexing():
    spec = spec_of(rows=9, cols=9, anchor=(4, 4))
    horizon = 5
    policy = uniform_reward_policy(spec, horizon)
    reward = np.zeros((9, 9))
    batch = sample_rollouts(policy, reward, 8, seed=4)
    rs = np.random.RandomState(0)
    stack = rs.uniform(size=(9, 9, 3))
    got = gather_path_features(batch, stack)
    for i in range(8):
        for t in range(horizon):
            r, c = batch.cells[i, t + 1]
            np.testing.assert_array_equal(got.features[i, t], stack[r, c])


def test_gather_constant_stack():
    spec = spec_of(rows=9, cols=9, anchor=(4, 4))
    policy = one_hot_policy(spec, ACTIONS.index((0, 1)), 3)
    batch = sample_rollouts(policy, np.zeros((9, 9)), 2, seed=0)
    stack = np.full((9, 9, 2), 7.5)
    got = gather_path_features(batch, stack)
    np.testing.assert_array_equal(got.features, 7.5)


def reference_sample_rollouts(policy, reward, count, seed):
    """The previous sampler: (row, col) cells, pi_t from Policy.probs at every
    step, then its cumsum divided by the last column. Returns (cells,
    path_rewards)."""
    spec, horizon = policy.spec, policy.horizon
    streams = np.arange(count, dtype=np.int64) + rng.STREAM_ROLLOUT * (2 ** 32)
    cells = np.zeros((count, horizon + 1, 2), dtype=np.int64)
    cells[:, 0, 0] = spec.anchor.row
    cells[:, 0, 1] = spec.anchor.col
    rewards = np.zeros(count)
    draws = rng.uniform(seed, streams[:, None], np.arange(horizon))
    for t in range(horizon):
        cum = policy.probs(t, cells[:, t, 0], cells[:, t, 1]).cumsum(axis=1)
        cum /= cum[:, -1:]
        action = np.minimum((draws[:, t, None] >= cum).sum(axis=1), N_ACTIONS - 1)
        np.add(cells[:, t], ACTION_OFFSETS[action], out=cells[:, t + 1])
        rewards += reward[cells[:, t + 1, 0], cells[:, t + 1, 1]]
    return cells, rewards


def reference_cumulative(policy, t, rows, cols):
    cum = policy.probs(t, rows, cols).cumsum(axis=1)
    cum /= cum[:, -1:]
    return cum


def default_box(anchor=(32, 64), horizon=32):
    spec = GridSpec(rows=128, cols=128, resolution=1.0, anchor=CellIndex(*anchor))
    return reachable_box(spec, horizon)[0], horizon


def acceptance_box():
    cfg = RunConfig(rows=40, cols=40, resolution=2.0, anchor_row=10, anchor_col=20, horizon=16)
    return reachable_box(cfg.grid_spec(), cfg.horizon)[0], cfg.horizon


def sampler_case(name):
    """(policy, reward) of one sampler case: the straight policy on the
    default 65x65/H=32 box, on the acceptance 27x33/H=16 box and on a box the
    grid clips on two sides, and random positive weights on the default box."""
    rs = np.random.RandomState(sum(map(ord, name)))
    if name == "random_weights":
        box, horizon = default_box()
        policy = Policy.on_grid(box, horizon, rs.uniform(0.01, 3.0, (3, 3)))
    else:
        box, horizon = {"default": default_box, "acceptance": acceptance_box,
                        "clipped": lambda: default_box(anchor=(10, 120))}[name]()
        policy = pipeline.straight_rollout_policy(box, horizon)
    return policy, rs.normal(size=(box.rows, box.cols))


# each case's (rows, cols, horizon); the clipped box's anchor lies within H
# of its top and right borders
SAMPLER_CASES = {"default": (65, 65, 32), "acceptance": (27, 33, 16),
                 "clipped": (43, 40, 32), "random_weights": (65, 65, 32)}


@pytest.mark.parametrize("name", SAMPLER_CASES)
def test_table_sampler_is_the_reference_loop_bitwise(name):
    policy, reward = sampler_case(name)
    assert (policy.spec.rows, policy.spec.cols, policy.horizon) == SAMPLER_CASES[name]
    for seed in range(200):
        batch = sample_rollouts(policy, reward, 128, seed)
        cells, rewards = reference_sample_rollouts(policy, reward, 128, seed)
        assert batch.cells.dtype == cells.dtype and batch.cells.flags.c_contiguous
        assert batch.cells.tobytes() == cells.tobytes()
        assert batch.path_rewards.tobytes() == rewards.tobytes()


@pytest.mark.parametrize("name", SAMPLER_CASES)
def test_table_rows_are_the_normalised_cumsum_of_probs_bitwise(name):
    # every cell of every window, border cells included
    policy, _ = sampler_case(name)
    cols = policy.spec.cols
    for t in range(policy.horizon):
        rows, cols_ = (a.ravel() for a in np.mgrid[policy.windows[t]])
        got = policy.cumulative(t, rows * cols + cols_)
        assert got.tobytes() == reference_cumulative(policy, t, rows, cols_).tobytes()


def test_table_rows_divide_by_sums_that_are_not_exactly_one():
    # most random weights leave some row's sum an ulp off 1, where the
    # division by the last column changes bits
    spec, t = spec_of(rows=7, cols=8, anchor=(3, 3)), 4  # windows[4] is the grid
    rows, cols = np.divmod(np.arange(spec.rows * spec.cols), spec.cols)
    rs, off_one = np.random.RandomState(0), 0
    for _ in range(20):
        policy = Policy.on_grid(spec, t + 1, rs.uniform(0.01, 3.0, (3, 3)))
        off_one += int((policy.probs(t, rows, cols).sum(axis=1) != 1.0).any())
        got = policy.cumulative(t, rows * spec.cols + cols)
        assert got.tobytes() == reference_cumulative(policy, t, rows, cols).tobytes()
    assert off_one > 0


def test_planned_sampler_is_the_reference_loop_bitwise():
    # a time-varying policy computes each step at the batch's cells
    for name in ("default", "clipped"):
        policy, reward = sampler_case(name)
        planned = soft_value_iteration(reward, policy.spec, policy.horizon)[1]
        for seed in range(20):
            batch = sample_rollouts(planned, reward, 128, seed)
            cells, rewards = reference_sample_rollouts(planned, reward, 128, seed)
            assert batch.cells.tobytes() == cells.tobytes()
            assert batch.path_rewards.tobytes() == rewards.tobytes()


def test_the_table_is_read_only_contiguous_and_built_once(monkeypatch):
    policy, reward = sampler_case("random_weights")
    built = []
    real = irl.neighbourhood
    monkeypatch.setattr(irl, "neighbourhood", lambda *a: built.append(1) or real(*a))
    for seed in range(3):
        sample_rollouts(policy, reward, 16, seed)
    table, dead = policy._table
    assert len(built) == 1 and policy._table[0] is table
    assert table.shape == (policy.spec.rows * policy.spec.cols, N_ACTIONS)
    assert table.flags.c_contiguous and not table.flags.writeable
    assert not dead.flags.writeable and not dead.any()
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_the_memoised_straight_policy_samples_without_recomputing_probs(monkeypatch):
    box, horizon = default_box()
    policy = pipeline.straight_rollout_policy(box, horizon)
    reward = np.zeros((box.rows, box.cols))
    sample_rollouts(policy, reward, 128, 0)
    calls = []
    real_probs, real_successors = Policy.probs, irl.successors
    monkeypatch.setattr(Policy, "probs", lambda *a: calls.append("probs") or real_probs(*a))
    monkeypatch.setattr(irl, "successors",
                        lambda *a: calls.append("successors") or real_successors(*a))
    sample_rollouts(pipeline.straight_rollout_policy(box, horizon), reward, 128, 1)
    assert calls == []


def dead_end_policy(horizon, planned):
    """The one-hot (1, 0) policy on a 9x9 grid from (4, 4): row 8 has no move.
    ``planned`` rebuilds it from the same maps as a time-varying policy."""
    policy = one_hot_policy(spec_of(rows=9, cols=9, anchor=(4, 4)), ACTIONS.index((1, 0)),
                            horizon)
    return Policy(policy.spec, policy.weights, policy.succ, policy.norm) if planned else policy


@pytest.mark.parametrize("horizon", [5, 6])
@pytest.mark.parametrize("planned", [False, True])
def test_a_path_at_a_cell_with_no_move_raises_naming_the_step_and_cell(planned, horizon):
    # the path reaches row 8 at step 4, the last step's start at horizon 5;
    # the old loop divided 0/0 there and took action 0, a move of
    # probability 0, to (7, 3)
    with pytest.raises(ValueError, match=r"step 4 starts at cell \(8, 4\)"):
        sample_rollouts(dead_end_policy(horizon, planned), np.zeros((9, 9)), 3, seed=0)


@pytest.mark.parametrize("planned", [False, True])
def test_a_path_may_end_on_a_cell_with_no_move(planned):
    batch = sample_rollouts(dead_end_policy(4, planned), np.zeros((9, 9)), 3, seed=0)
    assert batch.cells[:, -1].tolist() == [[8, 4]] * 3


# ---------------------------------------------------------------------------
# trajectory conversion
# ---------------------------------------------------------------------------

def decode(paths, spec, n_points, speed, dt):
    """The (L, n_points, 2) trajectories of an (L, H+1, 2) path batch: one
    path_polylines pass, then one path_to_trajectory per path, as
    predict_scene decodes."""
    points, arc = path_polylines(np.asarray(paths, dtype=np.int64), spec)
    targets = np.arange(1, n_points + 1) * speed * dt
    return np.stack([path_to_trajectory(points[i], arc[i], targets)
                     for i in range(len(points))])


def test_straight_path_resampling():
    spec = GridSpec(rows=40, cols=9, resolution=1.0, anchor=CellIndex(0, 4))
    path = np.column_stack([np.arange(32), np.full(32, 4)])
    traj = decode([path], spec, n_points=30, speed=10.0, dt=0.1)[0]
    np.testing.assert_allclose(traj[:, 0], np.arange(1, 31), atol=1e-12)
    np.testing.assert_allclose(traj[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(traj[-1], (30.0, 0.0), atol=1e-12)


def test_all_stay_path():
    spec = spec_of()
    path = np.tile([10, 10], (7, 1))
    traj = decode([path], spec, n_points=5, speed=8.0, dt=0.1)[0]
    np.testing.assert_array_equal(traj, 0.0)


def reference_path_to_trajectory(path_cells, spec, n_points, speed, dt):
    """path_to_trajectory as first written: repeats dropped by a row-wise any,
    segment lengths from linalg.norm and a concatenated cumulative sum."""
    cells = np.asarray(path_cells, dtype=np.int64).reshape(-1, 2)
    keep = np.ones(len(cells), dtype=bool)
    keep[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    xy = cell_to_world(cells[keep], spec)
    if len(xy) == 1:
        return np.repeat(xy, n_points, axis=0)
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = (np.arange(1, n_points + 1)) * speed * dt
    out = np.empty((n_points, 2))
    out[:, 0] = np.interp(targets, cum, xy[:, 0])
    out[:, 1] = np.interp(targets, cum, xy[:, 1])
    return out


def random_walk(rs, anchor, length, stay):
    """An 8-connected path of ``length`` moves from ``anchor``, each a STAY with
    probability ``stay`` and otherwise one of the eight other moves."""
    moves = np.array([m for m in ACTIONS if m != (0, 0)])
    steps = moves[rs.randint(0, 8, length)]
    steps[rs.uniform(size=length) < stay] = 0
    return np.vstack([anchor, anchor + np.cumsum(steps, axis=0)])


@pytest.mark.parametrize("resolution", [1.0, 2.0, 0.3])
def test_path_to_trajectory_is_the_reference_decoder_bitwise(resolution):
    # 0.3 m cells have centres that are not exact multiples of the cell size;
    # with 30 points, np.interp precomputes its slopes for H + 1 <= 30 knots,
    # where a repeated knot's 0/0 slope is computed and never read
    spec = GridSpec(rows=81, cols=81, resolution=resolution, anchor=CellIndex(40, 40))
    anchor = np.array([40, 40])
    rs = np.random.RandomState(int(resolution * 10))
    for horizon in (0, 1, 4, 16, 29, 30, 32):
        paths = [random_walk(rs, anchor, horizon, stay) for stay in (0.0, 0.3, 0.7, 0.95) * 25]
        paths.append(np.tile(anchor, (horizon + 1, 1)))  # all STAY; at H = 0, one cell
        if horizon:
            run = max(horizon // 4, 1)
            walk = random_walk(rs, anchor, horizon - run, 0.0)
            paths += [np.vstack([np.tile(anchor, (run, 1)), walk]),  # STAYs first
                      np.vstack([walk, np.tile(walk[-1], (run, 1))])]  # STAYs last
        for speed in (0.5, 5.0, 12.0, 50.0):
            # speed * dt * n_points from 1.5 m to 150 m: the long ones overrun the path
            with np.errstate(all="raise"):
                got = decode(paths, spec, 30, speed, 0.1)
                want = [reference_path_to_trajectory(path, spec, 30, speed, 0.1)
                        for path in paths]
            assert got.shape == (len(paths), 30, 2)
            for i, path in enumerate(paths):
                assert got[i].tobytes() == want[i].tobytes(), (horizon, speed, i)


def test_path_polylines_rejects_a_path_off_the_grid():
    spec = spec_of(rows=9, cols=9, anchor=(4, 4))
    with pytest.raises(ValueError, match="outside 9x9"):
        path_polylines(np.array([[[4, 4], [4, 5]], [[4, 4], [4, 9]]]), spec)


def test_path_polylines_measure_the_batch_arc_lengths():
    spec = GridSpec(rows=9, cols=9, resolution=2.0, anchor=CellIndex(4, 4))
    cells = np.array([[[4, 4], [5, 4], [5, 4], [6, 5]],
                      [[4, 4], [4, 4], [4, 4], [4, 4]]])
    points, arc = path_polylines(cells, spec)
    np.testing.assert_array_equal(points, (cells - 4) * 2.0)
    np.testing.assert_array_equal(arc, [[0.0, 2.0, 2.0, 2.0 + np.sqrt(8.0)],
                                        [0.0, 0.0, 0.0, 0.0]])


def test_short_path_clamps_at_terminus():
    spec = GridSpec(rows=40, cols=9, resolution=1.0, anchor=CellIndex(0, 4))
    path = np.column_stack([np.arange(4), np.full(4, 4)])  # 3 m long
    traj = decode([path], spec, n_points=10, speed=10.0, dt=0.1)[0]
    np.testing.assert_allclose(traj[2:], np.tile([3.0, 0.0], (8, 1)), atol=1e-12)


def test_no_reasoning_scene_converts_its_cells_to_metres_once(monkeypatch):
    calls = []

    def counted(cells, spec):
        calls.append(np.shape(cells))
        return cell_to_world(cells, spec)

    monkeypatch.setattr(rollout, "cell_to_world", counted)
    cfg = RunConfig()
    pipeline.predict_scene(generate_scene("curve", seed=1), cfg, reasoning=False, stream_key=1)
    assert calls == [(cfg.rollouts, cfg.horizon + 1, 2)]


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def _bundle(center, n, noise, rs):
    return center[None] + rs.uniform(-noise, noise, size=(n,) + center.shape)


def test_identical_copies_of_k_trajectories():
    t = np.linspace(0, 1, 10)
    base = [np.column_stack([t * 10, np.full(10, y)]) for y in (-5.0, 0.0, 5.0)]
    proposals = np.stack(base * 4)
    result = cluster_proposals(proposals, k=3, seed=0)
    anchors = sorted(result.anchors.tolist(), key=lambda a: a[0][1])
    expected = sorted([b.tolist() for b in base], key=lambda a: a[0][1])
    np.testing.assert_allclose(anchors, expected, atol=1e-9)


def test_all_identical_proposals_degenerate():
    proposals = np.tile(np.linspace(0, 1, 8)[None, :, None], (10, 1, 2))
    result = cluster_proposals(proposals, k=2, seed=1)
    np.testing.assert_allclose(result.anchors[0], result.anchors[1], atol=1e-12)
    np.testing.assert_allclose(result.anchors[0], proposals[0], atol=1e-12)


def test_two_bundles_recovered():
    rs = np.random.RandomState(7)
    t = np.linspace(0, 3, 15)
    a = np.column_stack([t * 8, np.zeros(15)])
    b = np.column_stack([t * 8, t * 3])
    proposals = np.vstack([_bundle(a, 50, 0.1, rs), _bundle(b, 50, 0.1, rs)])
    result = cluster_proposals(proposals, k=2, seed=3)
    for target in (a, b):
        err = min(np.linalg.norm(result.anchors[j] - target, axis=1).mean() for j in range(2))
        assert err < 0.2


def test_inertia_non_increasing():
    rs = np.random.RandomState(9)
    proposals = rs.uniform(-10, 10, size=(60, 12, 2))
    result = cluster_proposals(proposals, k=5, seed=5)
    hist = result.inertia_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_cluster_rejects_too_few():
    with pytest.raises(ValueError):
        cluster_proposals(np.zeros((3, 5, 2)), k=4, seed=0)


def reference_cluster_proposals(proposals, k, seed, max_iter=KMEANS_MAX_ITER):
    """cluster_proposals as first written: one scalar draw per seed,
    each Lloyd step's distances from an (n, k, d) difference tensor and each
    centroid as the mean of its members."""
    proposals = np.asarray(proposals, dtype=np.float64)
    n, t, _ = proposals.shape
    x = proposals.reshape(n, -1)

    def pick(counter, weights):
        u = float(rng.uniform(seed, rng.STREAM_KMEANS, counter)[0])
        if weights is None or weights.sum() <= 0.0:
            return min(int(u * n), n - 1)
        cum = np.cumsum(weights)
        return int(np.searchsorted(cum, u * cum[-1], side="right").clip(0, n - 1))

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[pick(0, None)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = x[pick(j, d2)]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    inertia_history = []
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist.argmin(axis=1)
        inertia_history.append(float(dist[np.arange(n), labels].sum()))
        new_centers = centers.copy()
        counts = np.bincount(labels, minlength=k)
        for j in np.flatnonzero(counts):
            new_centers[j] = x[labels == j].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            own = dist[np.arange(n), labels].copy()
            for j in empties:
                far = int(own.argmax())
                new_centers[j] = x[far]
                own[far] = -1.0
        shift = np.linalg.norm(
            new_centers.reshape(k, t, 2) - centers.reshape(k, t, 2), axis=2).max()
        centers = new_centers
        if shift < KMEANS_SHIFT_TOL:
            break
    dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1)
    return rollout.ClusterResult(anchors=centers.reshape(k, t, 2), membership=labels,
                                 n_iter=n_iter, inertia_history=inertia_history)


@pytest.fixture(scope="module")
def straight_proposals():
    """The proposals of 60 default-config no-reasoning scenes, ten per kind."""
    cfg = RunConfig()
    return [pipeline.predict_scene(generate_scene(SCENE_KINDS[i % 6], 500 + i), cfg,
                                   reasoning=False, stream_key=i).forecast.proposals
            for i in range(60)]


def distinct_rows(proposals):
    return len(np.unique(proposals.reshape(len(proposals), -1), axis=0))


def assert_clusters_match_the_reference(proposals, k, seed):
    got = cluster_proposals(proposals, k, seed)
    want = reference_cluster_proposals(proposals, k, seed)
    assert got.n_iter == want.n_iter
    assert np.array_equal(got.membership, want.membership)
    scale = max(1.0, np.abs(want.anchors).max())
    np.testing.assert_allclose(got.anchors, want.anchors, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(got.inertia_history, want.inertia_history, rtol=1e-12,
                               atol=1e-12 * scale ** 2)


def test_kmeans_seeding_draws_every_counter_at_once(monkeypatch, straight_proposals):
    # no Lloyd step: the anchors are the k-means++ seeds, bit for bit the ones
    # drawn one counter at a time
    monkeypatch.setattr(rollout, "KMEANS_MAX_ITER", 0)
    rs = np.random.RandomState(11)
    sets = straight_proposals[:6] + [rs.uniform(-5, 5, (40, 8, 2)), np.zeros((10, 4, 2))]
    for i, proposals in enumerate(sets):
        for k in (1, 3, 6, len(proposals)):
            got = cluster_proposals(proposals, k, seed=i)
            want = reference_cluster_proposals(proposals, k, seed=i, max_iter=0)
            assert got.anchors.tobytes() == want.anchors.tobytes()
            assert got.n_iter == 0 and got.inertia_history == []


def test_kmeans_on_distinct_proposals_is_the_reference(straight_proposals):
    # every straight-policy proposal of these scenes is distinct, so no two
    # centres tie exactly and the assignments are the reference's
    assert all(distinct_rows(p) == len(p) for p in straight_proposals)
    for i, proposals in enumerate(straight_proposals):
        assert_clusters_match_the_reference(proposals, 6, seed=i)
    rs = np.random.RandomState(12)
    for i in range(40):
        n, t = rs.randint(6, 130), rs.randint(1, 31)
        proposals = rs.uniform(-30, 30, (n, t, 2)) * rs.uniform(0.01, 3)
        for k in (1, min(6, n), n):
            assert_clusters_match_the_reference(proposals, k, seed=100 + i)


def duplicate_heavy_sets():
    """Proposal sets that repeat a few lattice trajectories many times over,
    and the all-identical set."""
    rs = np.random.RandomState(13)
    for i in range(30):
        n, t, distinct = rs.randint(20, 129), rs.randint(2, 31), rs.randint(1, 12)
        base = rs.randint(-6, 7, (distinct, t, 2)) * 0.5
        yield base[rs.randint(0, distinct, n)], min(6, n)
    yield np.tile(np.linspace(0, 1, 8)[None, :, None], (10, 1, 2)), 2
    yield np.full((40, 30, 2), 123.25), 6


def test_kmeans_anchors_are_their_members_means_on_duplicate_heavy_sets():
    for i, (proposals, k) in enumerate(duplicate_heavy_sets()):
        result = cluster_proposals(proposals, k, seed=i)
        scale = max(1.0, np.abs(proposals).max())
        hist = result.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        assert min(hist) >= 0.0  # each point's distance to its centre is clamped at 0
        for j in np.unique(result.membership):
            mean = proposals[result.membership == j].mean(axis=0)
            np.testing.assert_allclose(result.anchors[j], mean, rtol=0.0, atol=1e-12 * scale)


def test_kmeans_distances_are_never_negative_on_identical_proposals():
    # ||x||^2 - 2 x.c + ||c||^2 with c = x can round below 0; the clamp keeps
    # every distance, and so every inertia, at 0 or above
    for value in (0.1, 1.0 / 3.0, 123.25, 1e4 / 7.0):
        proposals = np.full((50, 30, 2), value)
        proposals[:, :, 1] *= -0.7
        result = cluster_proposals(proposals, 6, seed=3)
        assert all(inertia >= 0.0 for inertia in result.inertia_history)
        np.testing.assert_allclose(result.anchors, np.broadcast_to(proposals[0], (6, 30, 2)),
                                   rtol=1e-15, atol=0.0)


def test_kmeans_builds_no_pairwise_difference_tensor():
    # one (128, 6, 60) float64 array takes 368,640 bytes
    proposals = np.random.RandomState(14).uniform(-20, 20, (128, 30, 2))
    cluster_proposals(proposals, 6, seed=0)  # warm the code path
    tracemalloc.start()
    try:
        cluster_proposals(proposals, 6, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 6 * 60 * 8


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_smooth_anchor_unchanged():
    t = np.arange(1, 31, dtype=float)
    anchor = np.stack([np.column_stack([t, 0.5 * t])])  # straight through origin
    offsets = refine_offsets(anchor, smooth_weight=10.0)
    assert np.abs(offsets).max() < 1e-6


def test_zero_weight_zero_offsets():
    rs = np.random.RandomState(1)
    anchors = rs.uniform(-5, 5, size=(3, 12, 2))
    offsets = refine_offsets(anchors, smooth_weight=0.0)
    np.testing.assert_array_equal(offsets, 0.0)


def reference_refine_offsets(anchors, smooth_weight):
    """refine_offsets as first written: the system built on every call and one
    solve per mode and axis."""
    anchors = np.asarray(anchors, dtype=np.float64)
    k, t, _ = anchors.shape
    if smooth_weight == 0.0 or t < 2:
        return np.zeros_like(anchors)
    d2 = np.zeros((t - 1, t + 1))
    for j in range(1, t):
        d2[j - 1, j - 1: j + 2] = (1.0, -2.0, 1.0)
    b = d2[:, 1:]
    m = np.eye(t) + smooth_weight * (b.T @ b)
    offsets = np.zeros_like(anchors)
    for mode in range(k):
        for axis in range(2):
            e = np.concatenate([[0.0], anchors[mode, :, axis]])
            rhs = -smooth_weight * (b.T @ (d2 @ e))
            offsets[mode, :, axis] = np.linalg.solve(m, rhs)
    return offsets


def test_refine_offsets_is_the_reference_solve(straight_proposals):
    rs = np.random.RandomState(15)
    sets = [cluster_proposals(p, 6, seed=0).anchors for p in straight_proposals[:12]]
    sets += [rs.uniform(-50, 50, (rs.randint(1, 9), rs.randint(1, 40), 2)) for _ in range(30)]
    for anchors in sets:
        scale = max(1.0, np.abs(anchors).max())
        # the system's condition number grows as 1 + 16 w, and both solves
        # round with it: at w = 1e3 they differ by up to 1e-11 relative
        for weight in (0.25, 4.0, 10.0, 100.0):
            got = refine_offsets(anchors, weight)
            want = reference_refine_offsets(anchors, weight)
            assert got.shape == anchors.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
        assert refine_offsets(anchors, 0.0).tobytes() == np.zeros_like(anchors).tobytes()


def test_refine_offsets_solves_once_per_length_and_weight(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting_solve(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    anchors = np.random.RandomState(16).uniform(-5, 5, (6, 29, 2))
    first = refine_offsets(anchors, 3.75)
    second = refine_offsets(anchors[::-1], 3.75)
    assert len(calls) <= 1  # one solve over 24 right-hand sides, then memoised
    assert second.tobytes() == first[::-1].tobytes()


def test_smoothing_operator_is_read_only():
    operator = rollout.smoothing_operator(12, 4.0)
    assert operator.shape == (12, 12) and not operator.flags.writeable
    with pytest.raises(ValueError):
        operator[0, 0] = 1.0
    assert rollout.smoothing_operator(12, 4.0) is operator
    offsets = refine_offsets(np.ones((2, 12, 2)), 4.0)
    offsets += 1.0  # the offsets are the caller's own array
    assert np.shares_memory(offsets, operator) is False


def _curvature(traj):
    ext = np.vstack([[0.0, 0.0], traj])
    second = ext[2:] - 2 * ext[1:-1] + ext[:-2]
    return float((second ** 2).sum())


def test_zigzag_smoothed_toward_midpoint():
    t = np.arange(1, 21, dtype=float)
    anchor = np.column_stack([t, np.zeros(20)])
    anchor[9, 1] = 2.0  # single zig-zag perturbation
    offsets = refine_offsets(anchor[None], smooth_weight=10.0)
    refined = anchor + offsets[0]
    midpoint = 0.5 * (anchor[8] + anchor[10])
    assert np.linalg.norm(refined[9] - midpoint) < np.linalg.norm(anchor[9] - midpoint)
    assert _curvature(refined) < _curvature(anchor)


def test_final_equals_anchor_plus_offset_bit_exact():
    # pipeline convention: offsets are re-derived as final - anchors, so the
    # stored triple satisfies Y - anchors == offsets bitwise
    rs = np.random.RandomState(2)
    anchors = rs.uniform(-5, 5, size=(4, 10, 2))
    final = anchors + refine_offsets(anchors, smooth_weight=4.0)
    offsets = final - anchors
    np.testing.assert_array_equal(final - anchors, offsets)
    np.testing.assert_allclose(final, anchors + offsets, atol=0.0)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_equal_counts_equal_rewards_uniform():
    membership = np.repeat(np.arange(6), 10)
    p = score_modes(membership, np.zeros(60), k=6, temperature=1.0)
    np.testing.assert_allclose(p, 1.0 / 6.0, atol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_high_temperature_limit_is_frequency():
    membership = np.array([0] * 80 + [1] * 20)
    rewards = np.concatenate([np.full(80, -3.0), np.full(20, -1.0)])
    p = score_modes(membership, rewards, k=2, temperature=1e9)
    np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-6)


def test_counts_with_equal_rewards():
    membership = np.array([0] * 80 + [1] * 20)
    p = score_modes(membership, np.full(100, -2.0), k=2, temperature=1.0)
    np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-12)


def test_reward_tempering_shifts_mass():
    membership = np.array([0] * 50 + [1] * 50)
    rewards = np.concatenate([np.full(50, -4.0), np.full(50, -1.0)])
    p = score_modes(membership, rewards, k=2, temperature=1.0)
    assert p[1] > p[0]


def test_mode_probabilities_ignore_a_constant_reward_shift():
    # a path's reward sums the H cells it enters, so R + c adds H * c to every
    # path and to every cluster's mean; the softmax over modes cancels it
    rs = np.random.RandomState(30)
    membership = rs.randint(0, 5, size=96)  # the sixth cluster stays empty
    path_rewards = rs.uniform(-20.0, 0.0, size=96)
    horizon = 16
    for temperature in (1.0, 0.5, 3.0):
        p = score_modes(membership, path_rewards, 6, temperature)
        for c in (-50.0, 17.3, 1e3):
            q = score_modes(membership, path_rewards + horizon * c, 6, temperature)
            np.testing.assert_allclose(q, p, rtol=0.0, atol=1e-12)
            assert q[5] == 0.0


def test_temperature_must_be_positive():
    with pytest.raises(ValueError):
        score_modes(np.zeros(4, dtype=int), np.zeros(4), k=1, temperature=0.0)


def test_forecast_payload_shape():
    f = Forecast(trajectories=np.zeros((2, 4, 2)), anchors=np.zeros((2, 4, 2)),
                 offsets=np.zeros((2, 4, 2)), probs=np.array([0.7, 0.3]),
                 proposals=np.zeros((5, 4, 2)))
    payload = forecast_to_payload(f)
    assert len(payload["modes"]) == 2
    assert payload["modes"][0]["prob"] == 0.7
    assert "proposals" not in payload
    assert "proposals" in forecast_to_payload(f, include_proposals=True)


def test_written_forecast_bytes_are_the_streamed_encoding(tmp_path):
    rs = np.random.RandomState(6)
    trajectories = rs.normal(size=(3, 5, 2))
    f = Forecast(trajectories=trajectories, anchors=trajectories - 0.25,
                 offsets=np.full((3, 5, 2), 0.25), probs=np.array([0.5, 0.3, 0.2]),
                 proposals=rs.normal(size=(4, 5, 2)))
    extra = {"reasoning": True, "scene": "curve_0001.json", "demo_horizon_factor": 2.0,
             "seed": 7}
    path = tmp_path / "f.forecast.json"
    write_forecast(path, f, include_proposals=True, extra=extra)
    assert path.read_bytes() == streamed_json({**forecast_to_payload(f, True), **extra})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nonfinite_forecast_is_not_written(tmp_path, bad):
    # strict JSON has no NaN or Infinity, so the file is never opened
    trajectories = np.zeros((2, 4, 2))
    trajectories[1, 3, 0] = bad
    f = Forecast(trajectories=trajectories, anchors=np.zeros((2, 4, 2)),
                 offsets=trajectories, probs=np.array([0.5, 0.5]),
                 proposals=np.zeros((3, 4, 2)))
    path = tmp_path / "f.forecast.json"
    with pytest.raises(ValueError, match="f.forecast.json: Out of range float"):
        write_forecast(path, f)
    assert not path.exists()
