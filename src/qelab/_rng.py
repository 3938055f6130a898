"""Counter-based random streams.

Every random quantity in the package, the graph pairings included, is
derived from a 64-bit key and an integer counter through the splitmix64
finalizer.  This gives stateless, order-independent draws: worker processes,
the scalar path and the vectorized kernels all evaluate the same pure
function and therefore produce bit-identical streams.  Nothing here loads
``numpy.random``.

Key derivation scheme (documented so alternate implementations can reproduce
the streams):

    hash_u64(key, ctr)   = mix64(key + (ctr + 1) * GOLDEN)
    derive_key(key, ...) = fold hash_u64 over the indices, strings folded
                           through FNV-1a first
    uniform01_vec(h)     = (h >> 11) * 2**-53

where ``mix64`` is the splitmix64 finalizer (Vigna's constants).  The stub
keys of a graph pairing are ``hash_u64_vec`` over the stub ids;
``graphs.generate_random_regular`` states the rule.  For a fixed key,
ctr -> hash_u64(key, ctr) is a bijection of the 64-bit words (both of its
steps are), so ``unhash_u64_vec`` recovers the counters from the hashes.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# inverses modulo 2**64 of the odd multipliers, for unhash_u64_vec
_GOLDEN_INV = pow(GOLDEN, -1, 1 << 64)
_MIX1_INV = pow(_MIX1, -1, 1 << 64)
_MIX2_INV = pow(_MIX2, -1, 1 << 64)

# draws reserved per sample index in omega streams; fixed across potential
# kinds so that switching the distribution does not re-map indices
OMEGA_STRIDE = 4


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def hash_u64(key: int, ctr: int) -> int:
    return mix64((key + ((ctr + 1) * GOLDEN) & MASK64) & MASK64)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def derive_key(key: int, *indices: int | str) -> int:
    """Derive a child key from ``key`` and a path of integers or tag strings."""
    k = key & MASK64
    for idx in indices:
        if isinstance(idx, str):
            idx = fnv1a64(idx)
        k = hash_u64(k, idx & MASK64)
    return k


# ----------------------------------------------------------------------
# vectorized counterparts (bit-identical to the scalar path)
# ----------------------------------------------------------------------


def _mix64_vec(z: np.ndarray, tmp=None) -> np.ndarray:
    """splitmix64 finalizer of ``z`` in place; ``tmp`` is uint64 scratch of its shape."""
    tmp = np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def hash_u64_vec(key, ctrs: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """``hash_u64`` over an array of counters.

    ``key`` is an int or a uint64 array of shape (m, 1), which broadcasts
    against ``ctrs`` to give m streams at once, each with the same bits as
    its scalar key.  ``out`` and ``tmp`` are optional uint64 buffers of the
    result's shape; the result is written into ``out`` when given.
    """
    ctrs = ctrs.astype(np.uint64, copy=False)
    key = np.uint64(key)
    if out is None:
        out = np.empty(np.broadcast_shapes(key.shape, ctrs.shape), dtype=np.uint64)
    # key + (ctr + 1) * GOLDEN, modulo 2**64, in place
    np.add(ctrs, np.uint64(1), out=out)
    out *= np.uint64(GOLDEN)
    out += key
    return _mix64_vec(out, tmp)


def _unxorshift(z: np.ndarray, shift: int, tmp: np.ndarray) -> None:
    """Undo ``z ^= z >> shift`` in place: z ^ (z >> s) ^ (z >> 2s) ^ ... ,
    doubling the shift each step."""
    while shift < 64:
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        shift *= 2


def unhash_u64_vec(key: int, h: np.ndarray, tmp=None) -> np.ndarray:
    """The counters whose ``hash_u64_vec`` under ``key`` is ``h``, computed in
    place in the uint64 array ``h``; ``tmp`` is optional uint64 scratch of
    its shape."""
    if tmp is None:
        tmp = np.empty_like(h)
    _unxorshift(h, 31, tmp)
    h *= np.uint64(_MIX2_INV)
    _unxorshift(h, 27, tmp)
    h *= np.uint64(_MIX1_INV)
    _unxorshift(h, 30, tmp)
    h -= np.uint64(key)
    h *= np.uint64(_GOLDEN_INV)
    h -= np.uint64(1)
    return h


def _unit_from_bits(bits: np.ndarray, out=None, scale: float = 2.0**-53) -> np.ndarray:
    """53-bit integers ``bits`` times ``scale`` (a power of two, so exact),
    into the float64 array ``out`` when given."""
    return np.multiply(bits, scale, out=out)


def uniform01_vec(h: np.ndarray) -> np.ndarray:
    return _unit_from_bits(h >> np.uint64(11))


def draw_omega_vec(kind: str, bound: float, key, indices: np.ndarray, out=None,
                   scratch=None) -> np.ndarray:
    """Vectorized i.i.d. draws from the site-potential distribution ``kind``
    ("uniform", "rescaled-beta" or "two-point") on [-bound, bound].

    ``indices`` are sample counters (vertex ids or tree-node ids); each index
    owns OMEGA_STRIDE consecutive counters in the stream keyed by ``key``.
    A key array of shape (m, 1) gives draws of shape (m, len(indices)).
    A caller that sweeps level after level may pass ``out`` (float64) and
    ``scratch`` (two uint64 arrays), each of the result's shape, to reuse
    them; the draws are the same bits either way.
    """
    bits, tmp = scratch if scratch is not None else (None, None)
    base = indices.astype(np.uint64) * np.uint64(OMEGA_STRIDE)
    h = hash_u64_vec(key, base, bits, tmp)
    h >>= np.uint64(11)
    if kind == "uniform":
        # bound * (2 u0 - 1), in place: h * 2**-52 is 2 u0 exactly, and a
        # bound of 1.0 leaves every value as it is
        u = _unit_from_bits(h, out, 2.0**-52)
        u -= 1.0
        if bound != 1.0:
            u *= bound
        return u
    u0 = _unit_from_bits(h, out)
    if kind == "two-point":
        u0[...] = np.where(u0 >= 0.5, bound, -bound)
        return u0
    if kind == "rescaled-beta":
        u1 = uniform01_vec(hash_u64_vec(key, base + np.uint64(1)))
        u2 = uniform01_vec(hash_u64_vec(key, base + np.uint64(2)))
        med = np.minimum(np.maximum(np.minimum(u0, u1), u2), np.maximum(u0, u1))
        u0[...] = bound * (2.0 * med - 1.0)
        return u0
    raise ValueError(f"unknown potential kind {kind!r}")

