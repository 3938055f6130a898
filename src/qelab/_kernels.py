"""Hot numeric kernels: cavity tree sweeps and directed-edge message passing.

Every kernel is plain numpy.  Tree kernels sweep many samples at once,
level by level over a (samples x level width) array, in sample blocks of at
most ``_BLOCK_NODES`` nodes per level; message passing is vectorized across
the directed edges of a graph.  Results are reproducible bit for bit and do
not depend on the blocking: child sums run in child order, complex
reciprocals and products go through explicit formulas, and potentials come
from the counter-based streams of ``_rng``.  The golden digests in
``tests/test_kernels.py`` pin them, and ``tests/test_sample_blocks.py``
compares the batches with a per-sample loop.

Conventions shared by every kernel:

* the spectral parameter is ``gamma = lam + 1j*eta`` with ``eta > 0``;
* a cavity value z satisfies ``Im z < 0``, ``|z| <= 1/eta`` and
  ``|Im z| >= eta / c_tilde**2``; kernels count violations of these bounds
  (with a 1e-12 relative slack for floating-point rounding) instead of
  raising, callers decide what to do with the counts;
* tree nodes are numbered in level order: root 0, then level k holding
  ``branches * q**(k-1)`` nodes; node ids feed the potential stream;
* ``leaf`` is the free fixed-point value that seeds every leaf, or None for
  bare leaves 1/(gamma - eps*omega).

Violation counter layout (int64[4]): [sign, modulus-cap, imaginary-floor,
nodes-visited].
"""

from __future__ import annotations

import numpy as np

from ._rng import draw_omega_vec, hash_u64_vec

_SLACK = 1e-12


def crecip_scalar(z: complex) -> complex:
    """1/z via the explicit conjugate formula.

    numpy and CPython disagree in the last bit of complex division; every
    kernel routes through this one formula (or ``crecip_vec``) so results
    stay bit-identical.  Safe without Smith scaling: cavity denominators
    live in [eta, O(1/eta)].
    """
    den = z.real * z.real + z.imag * z.imag
    return complex(z.real / den, -z.imag / den)


def crecip_vec(z: np.ndarray) -> np.ndarray:
    zr = z.real
    zi = z.imag
    den = zr * zr + zi * zi
    out = np.empty_like(z)
    out.real = zr / den
    out.imag = -zi / den
    return out


def cmul_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a*b via CPython's formula, which numpy's complex multiply may not match."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def tree_node_count(q: int, depth: int, branches: int) -> int:
    """Number of nodes in a depth-``depth`` sweep with ``branches`` subtrees."""
    per_branch = (q**depth - 1) // (q - 1) if q > 1 else depth
    return 1 + branches * per_branch


def level_offsets(q: int, depth: int, branches: int) -> np.ndarray:
    """Level-order id of the first node in each level, index 1..depth."""
    off = np.zeros(depth + 1, dtype=np.int64)
    off[1] = 1
    for k in range(1, depth):
        off[k + 1] = off[k] + branches * q ** (k - 1)
    return off


def _check_vec(values: np.ndarray, abs_cap: float, im_floor: float, viol: np.ndarray) -> None:
    viol[3] += values.size
    im = values.imag
    viol[0] += int(np.count_nonzero(im >= 0.0))
    viol[1] += int(np.count_nonzero(np.abs(values) > abs_cap * (1.0 + _SLACK)))
    viol[2] += int(np.count_nonzero(-im < im_floor * (1.0 - _SLACK)))


# ----------------------------------------------------------------------
# cavity recursion on tree balls
# ----------------------------------------------------------------------

# Samples are swept together in blocks of at most this many tree nodes per
# level, so one complex level array stays near 1 MB.  In timings of
# cavity_batch at q=3, depth 8, 2**15 was slower and 2**17 no faster.
_BLOCK_NODES = 2**16


def _sum_children(kids, count):
    """Sum of ``count`` children along the last axis, in child order from 0.

    The same bits as a scalar loop ``s = 0j; s += z``.  A last axis of
    length 1 holds one value shared by all ``count`` children.
    """
    total = np.zeros(kids.shape[:-1], dtype=np.complex128)
    for j in range(count):
        total = total + kids[..., j % kids.shape[-1]]
    return total


def cavity_levels(q, sizes, gamma, leaf, site):
    """The cavity recursion z = 1/(gamma - site - sum of q children), leaves first.

    Values have shape (samples, sizes[k-1]) at level k = 1..depth, in level
    order along the last axis.  A level kept at the size of the level above
    it holds one value shared by all q children of each parent: with every
    size 1 this is the eps = 0 chain, where all siblings coincide.
    ``site(k)`` returns eps*omega on level k with that shape; bare leaves
    call it, free leaves (``leaf`` not None) do not and are one row shared
    by every sample.  Yields (k, values) for k = depth, ..., 1.
    """
    depth = len(sizes)
    values = None
    for k in range(depth, 0, -1):
        width = sizes[k - 1]
        if values is not None:
            kids = values.reshape(values.shape[0], width, -1)
            values = crecip_vec(gamma - site(k) - _sum_children(kids, q))
        elif leaf is None:
            values = crecip_vec(gamma - site(k))
        else:
            values = np.full((1, width), leaf, dtype=np.complex128)
        yield k, values


def _sweep_block(q, depth, branches, eps, gamma, leaf, pot_kind, pot_a, keys,
                 spine_len, ray_branch, abs_cap, im_floor):
    """One disorder realization per key swept over a depth-``depth`` tree ball.

    ``keys`` is uint64 of shape (m, 1); each sample draws its potentials
    level by level from the stream of its key.  The spines hold the cavity
    values at depths 1..spine_len along the first ray of branch
    ``ray_branch``.  Returns (branch values (m, branches), spines
    (m, spine_len), root-site potentials (m,), violation counters summed
    over the block).
    """
    m = keys.shape[0]
    offsets = level_offsets(q, depth, branches)
    sizes = [branches * q**k for k in range(depth)]

    def site(k):
        ids = offsets[k] + np.arange(sizes[k - 1], dtype=np.int64)
        return eps * draw_omega_vec(pot_kind, pot_a, keys, ids)

    viol = np.zeros(4, dtype=np.int64)
    spine = np.empty((m, spine_len), dtype=np.complex128)
    for k, values in cavity_levels(q, sizes, gamma, leaf, site):
        counts = np.zeros(4, dtype=np.int64)
        _check_vec(values, abs_cap, im_floor, counts)
        viol += counts * (m // values.shape[0])  # a free-leaf row stands for all m samples
        if k <= spine_len:
            spine[:, k - 1] = values[:, ray_branch * q ** (k - 1)]
    omega_root = draw_omega_vec(pot_kind, pot_a, keys, np.zeros(1, dtype=np.int64))[:, 0]
    return np.broadcast_to(values, (m, branches)), spine, omega_root, viol


def _sample_blocks(samples, level_width):
    """Slices of consecutive samples with at most ``_BLOCK_NODES`` nodes on a
    level that is ``level_width`` wide per sample, or one sample if wider."""
    per_block = max(1, _BLOCK_NODES // level_width)
    return [slice(start, min(start + per_block, samples)) for start in range(0, samples, per_block)]


def ray_batch(q, depth, eps, gamma, leaf, pot_kind, pot_a, batch_key, samples,
              r_max, ray_branch, abs_cap, im_floor):
    """Im G(root, y_r) for r = 0..r_max on ``samples`` independent balls.

    y_r is the depth-r node on the first ray of branch ``ray_branch``.
    Returns (array of shape (samples, r_max + 1), summed violation counters).
    """
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    im = np.empty((samples, r_max + 1), dtype=np.float64)
    viol = np.zeros(4, dtype=np.int64)
    for block in _sample_blocks(samples, (q + 1) * q ** (depth - 1)):
        branch, spine, omega_root, counts = _sweep_block(
            q, depth, q + 1, eps, gamma, leaf, pot_kind, pot_a, keys[block, None],
            r_max, ray_branch, abs_cap, im_floor,
        )
        viol += counts
        g = crecip_vec(eps * omega_root - gamma + _sum_children(branch, q + 1))
        im[block, 0] = g.imag
        for r in range(1, r_max + 1):
            g = cmul_vec(g, spine[:, r - 1])
            im[block, r] = g.imag
    return im, viol


def cavity_batch(q, depth, eps, gamma, leaf, pot_kind, pot_a, batch_key, samples,
                 abs_cap, im_floor):
    """Root cavity values of ``samples`` independent q-branch balls.

    Returns (complex array of length samples, summed violation counters).
    """
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    zeta = np.empty(samples, dtype=np.complex128)
    viol = np.zeros(4, dtype=np.int64)
    for block in _sample_blocks(samples, q**depth):
        branch, _, omega_root, counts = _sweep_block(
            q, depth, q, eps, gamma, leaf, pot_kind, pot_a, keys[block, None],
            0, 0, abs_cap, im_floor,
        )
        viol += counts
        zeta[block] = crecip_vec(gamma - eps * omega_root - _sum_children(branch, q))
    _check_vec(zeta, abs_cap, im_floor, viol)
    return zeta, viol


# ----------------------------------------------------------------------
# message passing on the directed edges of a finite graph
# ----------------------------------------------------------------------


def messages_init(nbrs, omega, eps, gamma, abs_cap, im_floor):
    """Bare-site starting messages; returns (messages, violation counters)."""
    viol = np.zeros(4, dtype=np.int64)
    msg = crecip_vec(gamma - eps * omega[nbrs])
    _check_vec(msg, abs_cap, im_floor, viol)
    return msg, viol


def messages_advance(nbrs, rev, omega, eps, gamma, msg, rounds, abs_cap, im_floor):
    """``rounds`` cavity updates of every directed-edge message.

    Edge ids are vertex-major (u -> its j-th neighbor is u*deg + j), so row u
    of the (vertices, deg) view holds the messages out of u.  Returns
    (messages, violation counters of the updates).
    """
    viol = np.zeros(4, dtype=np.int64)
    deg = nbrs.size // omega.size
    site_pot = eps * omega[nbrs]
    for _ in range(rounds):
        site_sum = _sum_children(msg.reshape(-1, deg), deg)
        msg = crecip_vec(gamma - site_pot - (site_sum[nbrs] - msg[rev]))
        _check_vec(msg, abs_cap, im_floor, viol)
    return msg, viol
