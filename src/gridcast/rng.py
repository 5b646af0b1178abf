"""Counter-based deterministic random streams.

Every draw is a pure function of (seed, stream, counter), so sampling code is
reproducible and independent of evaluation order or thread count. The mixer is
the splitmix64 finalizer over wrapping uint64 arithmetic, which behaves
identically on every platform.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_STREAM_SALT = _U64(0xA0761D6478BD642F)
_COUNTER_SALT = _U64(0xE7037ED1A0B428DB)
_INV_2_53 = 2.0 ** -53

# Stream labels used across the package; keeping them in one place guarantees
# that different consumers of the same seed never collide.
STREAM_ROLLOUT = 0x01
STREAM_KMEANS = 0x02
STREAM_SCENE = 0x03
STREAM_PARAMS = 0x04
STREAM_TEST = 0x7F


def _as_u64_array(value) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype == np.uint64:
        return np.atleast_1d(arr)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"integer stream/counter required, got dtype {arr.dtype}")
    # int -> uint64 reinterpretation keeps negative inputs deterministic
    return np.atleast_1d(arr).astype(np.int64).view(np.uint64).copy()


def _mix(z: np.ndarray) -> np.ndarray:
    z = z + _GOLDEN
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _seed_u64(seed: int) -> np.ndarray:
    return np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)


def random_u64(seed: int, stream, counter) -> np.ndarray:
    """Raw uint64 hash for broadcastable (stream, counter) arrays."""
    s = _mix(_as_u64_array(stream) * _STREAM_SALT + _seed_u64(seed))
    return _mix(s ^ (_as_u64_array(counter) * _COUNTER_SALT))


def uniform(seed: int, stream, counter) -> np.ndarray:
    """Uniform doubles in [0, 1), one per broadcast element of (stream, counter)."""
    bits = random_u64(seed, stream, counter)
    return (bits >> _U64(11)).astype(np.float64) * _INV_2_53


def derive_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a sub-seed; order-sensitive and collision-resistant."""
    h = _seed_u64(seed)
    for tag in tags:
        h = _mix(h ^ _as_u64_array(int(tag) & 0xFFFFFFFFFFFFFFFF))
    return int(h[0])
