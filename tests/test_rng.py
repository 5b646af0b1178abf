import numpy as np

from gridcast import rng


def test_deterministic_across_calls():
    a = rng.uniform(42, np.arange(100), 7)
    b = rng.uniform(42, np.arange(100), 7)
    np.testing.assert_array_equal(a, b)


def test_order_independent():
    streams = np.arange(50)
    batch = rng.uniform(3, streams, 5)
    singles = np.array([float(rng.uniform(3, int(s), 5)[0]) for s in streams])
    np.testing.assert_array_equal(batch, singles)


def test_broadcast_draw_equals_the_per_counter_draws_bitwise():
    # sample_rollouts draws its (rollout, step) uniforms in one broadcast call
    streams = np.arange(96, dtype=np.int64) + rng.STREAM_ROLLOUT * (2 ** 32)
    batch = rng.uniform(11, streams[:, None], np.arange(16))
    assert batch.shape == (96, 16)
    per_counter = np.stack([rng.uniform(11, streams, t) for t in range(16)], axis=1)
    assert batch.tobytes() == per_counter.tobytes()


def test_range_and_spread():
    u = rng.uniform(0, rng.STREAM_TEST, np.arange(20000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_streams_differ():
    a = rng.uniform(0, 1, np.arange(64))
    b = rng.uniform(0, 2, np.arange(64))
    assert not np.array_equal(a, b)


def test_seed_changes_everything():
    a = rng.uniform(0, 5, np.arange(64))
    b = rng.uniform(1, 5, np.arange(64))
    assert not np.array_equal(a, b)


def test_derive_seed_tags_matter():
    assert rng.derive_seed(7, 1, 2) != rng.derive_seed(7, 2, 1)
    assert rng.derive_seed(7, 1) == rng.derive_seed(7, 1)
