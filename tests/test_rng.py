import numpy as np
import oracles

from qelab import _rng


def test_hash_scalar_matches_vector():
    key = _rng.derive_key(42, "check")
    ctrs = np.arange(1000, dtype=np.uint64)
    vec = _rng.hash_u64_vec(key, ctrs)
    scal = np.array([_rng.hash_u64(key, int(c)) for c in ctrs], dtype=np.uint64)
    assert np.array_equal(vec, scal)


def test_unhash_inverts_hash():
    key = _rng.derive_key(42, "check")
    ctrs = np.concatenate([np.arange(1000, dtype=np.uint64),
                           np.array([2**32 - 1, 2**63, 2**64 - 1], dtype=np.uint64)])
    assert np.array_equal(_rng.unhash_u64_vec(key, _rng.hash_u64_vec(key, ctrs)), ctrs)
    words = _rng.hash_u64_vec(7, ctrs)
    assert np.array_equal(_rng.hash_u64_vec(key, _rng.unhash_u64_vec(key, words.copy())), words)


def test_uniform_range_and_determinism():
    key = _rng.derive_key(7, "u")
    vals = _rng.uniform01_vec(_rng.hash_u64_vec(key, np.arange(10000, dtype=np.uint64)))
    assert vals.min() >= 0.0 and vals.max() < 1.0
    again = _rng.uniform01_vec(_rng.hash_u64_vec(key, np.arange(10000, dtype=np.uint64)))
    assert np.array_equal(vals, again)


def test_derive_key_differs_by_tag_and_index():
    base = 123456789
    keys = {
        _rng.derive_key(base, "a"),
        _rng.derive_key(base, "b"),
        _rng.derive_key(base, "a", 0),
        _rng.derive_key(base, "a", 1),
        _rng.derive_key(base + 1, "a"),
    }
    assert len(keys) == 5


def test_omega_scalar_matches_vector_all_kinds():
    key = _rng.derive_key(3, "omega")
    idx = np.arange(500, dtype=np.int64)
    for kind in ("uniform", "rescaled-beta", "two-point"):
        vec = _rng.draw_omega_vec(kind, 0.8, key, idx)
        scal = np.array([oracles.draw_omega_scalar(kind, 0.8, key, int(i)) for i in idx])
        assert np.array_equal(vec, scal)
        assert np.max(np.abs(vec)) <= 0.8


def test_omega_moments():
    key = _rng.derive_key(11, "m")
    idx = np.arange(200000, dtype=np.int64)
    uni = _rng.draw_omega_vec("uniform", 1.0, key, idx)
    assert abs(uni.mean()) < 0.01
    assert abs((uni**2).mean() - 1.0 / 3.0) < 0.01
    beta = _rng.draw_omega_vec("rescaled-beta", 1.0, key, idx)
    assert abs(beta.mean()) < 0.01
    assert abs((beta**2).mean() - 1.0 / 5.0) < 0.01
    two = _rng.draw_omega_vec("two-point", 1.0, key, idx)
    assert set(np.unique(two)) == {-1.0, 1.0}
    assert abs(two.mean()) < 0.01
