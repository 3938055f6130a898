"""Hot numeric kernels: cavity tree sweeps and directed-edge message passing.

Every kernel is plain numpy.  Tree kernels sweep many samples at once,
level by level over a (samples x level width) array, in sample blocks of at
most ``_BLOCK_NODES`` nodes per level, and sweep every gamma of a grid over
the potentials that a block draws once; message passing is vectorized
across the directed edges of a graph.  Results are reproducible bit for bit
and depend neither on the blocking nor on the other gammas of a grid: child
sums run in child order, complex reciprocals and products go through
explicit formulas, and potentials come from the counter-based streams of
``_rng``.  The golden digests in ``tests/test_kernels.py`` pin them, and
``tests/test_sample_blocks.py`` compares the batches with a per-sample loop
and with one-gamma calls.

Conventions shared by every kernel:

* the spectral parameter is ``gamma = lam + 1j*eta`` with ``eta > 0``; tree
  kernels take a sequence of them with matching leaves, caps and floors, and
  a single gamma is a grid of length 1;
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
    return crecip_parts(z.real, z.imag)


def crecip_parts(zr, zi) -> np.ndarray:
    """1/(zr + 1j*zi) by ``crecip_scalar``'s formula, from real arrays (or scalars).

    Taking the parts apart saves the complex temporaries of the cavity
    update gamma - eps*omega - sum, whose site term is real.
    """
    den = zr * zr + zi * zi
    out = np.empty(np.shape(den), dtype=np.complex128)
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
            total = _sum_children(kids, q)
            values = crecip_parts(gamma.real - site(k) - total.real, gamma.imag - total.imag)
        elif leaf is None:
            values = crecip_parts(gamma.real - site(k), gamma.imag)
        else:
            values = np.full((1, width), leaf, dtype=np.complex128)
        yield k, values


def _sweep_block(q, depth, branches, eps, gammas, leaves, pot_kind, pot_a, keys,
                 spine_len, ray_branch, abs_caps, im_floors):
    """One disorder realization per key swept over a depth-``depth`` tree ball,
    at every gamma of the grid ``gammas``.

    ``keys`` is uint64 of shape (m, 1); each sample draws its potentials
    level by level from the stream of its key, once per block, and every
    gamma is swept over the same draws with its own leaf, cap and floor.
    The spines hold the cavity values at depths 1..spine_len along the first
    ray of branch ``ray_branch``.  Returns (branch values (G, m, branches),
    spines (G, m, spine_len), root-site potentials (m,), violation counters
    (G, 4) summed over the block).
    """
    m = keys.shape[0]
    offsets = level_offsets(q, depth, branches)
    sizes = [branches * q**k for k in range(depth)]
    sites = {}

    def site(k):
        if k not in sites:
            ids = offsets[k] + np.arange(sizes[k - 1], dtype=np.int64)
            sites[k] = eps * draw_omega_vec(pot_kind, pot_a, keys, ids)
        return sites[k]

    viol = np.zeros((len(gammas), 4), dtype=np.int64)
    branch = np.empty((len(gammas), m, branches), dtype=np.complex128)
    spine = np.empty((len(gammas), m, spine_len), dtype=np.complex128)
    for i, gamma in enumerate(gammas):
        for k, values in cavity_levels(q, sizes, gamma, leaves[i], site):
            counts = np.zeros(4, dtype=np.int64)
            _check_vec(values, abs_caps[i], im_floors[i], counts)
            viol[i] += counts * (m // values.shape[0])  # a free-leaf row stands for all m samples
            if k <= spine_len:
                spine[i, :, k - 1] = values[:, ray_branch * q ** (k - 1)]
        branch[i] = values
    omega_root = draw_omega_vec(pot_kind, pot_a, keys, np.zeros(1, dtype=np.int64))[:, 0]
    return branch, spine, omega_root, viol


def _sample_blocks(samples, level_width):
    """Slices of consecutive samples with at most ``_BLOCK_NODES`` nodes on a
    level that is ``level_width`` wide per sample, or one sample if wider."""
    per_block = max(1, _BLOCK_NODES // level_width)
    return [slice(start, min(start + per_block, samples)) for start in range(0, samples, per_block)]


def ray_batch(q, depth, eps, gammas, leaves, pot_kind, pot_a, batch_key, samples,
              r_max, ray_branch, abs_caps, im_floors):
    """Im G(root, y_r) for r = 0..r_max on ``samples`` independent balls, at
    every gamma of ``gammas`` (with matching ``leaves``, ``abs_caps`` and
    ``im_floors``) over the same balls.

    y_r is the depth-r node on the first ray of branch ``ray_branch``.
    Returns (array of shape (G, samples, r_max + 1), violation counters (G, 4)).
    """
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    im = np.empty((len(gammas), samples, r_max + 1), dtype=np.float64)
    viol = np.zeros((len(gammas), 4), dtype=np.int64)
    for block in _sample_blocks(samples, (q + 1) * q ** (depth - 1)):
        branch, spine, omega_root, counts = _sweep_block(
            q, depth, q + 1, eps, gammas, leaves, pot_kind, pot_a, keys[block, None],
            r_max, ray_branch, abs_caps, im_floors,
        )
        viol += counts
        site_root = eps * omega_root
        for i, gamma in enumerate(gammas):
            g = crecip_vec(site_root - gamma + _sum_children(branch[i], q + 1))
            im[i, block, 0] = g.imag
            for r in range(1, r_max + 1):
                g = cmul_vec(g, spine[i, :, r - 1])
                im[i, block, r] = g.imag
    return im, viol


def cavity_batch(q, depth, eps, gammas, leaves, pot_kind, pot_a, batch_key, samples,
                 abs_caps, im_floors):
    """Root cavity values of ``samples`` independent q-branch balls, at every
    gamma of ``gammas`` (with matching ``leaves``, ``abs_caps`` and
    ``im_floors``) over the same balls.

    Returns (complex array of shape (G, samples), violation counters (G, 4)).
    """
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    zeta = np.empty((len(gammas), samples), dtype=np.complex128)
    viol = np.zeros((len(gammas), 4), dtype=np.int64)
    for block in _sample_blocks(samples, q**depth):
        branch, _, omega_root, counts = _sweep_block(
            q, depth, q, eps, gammas, leaves, pot_kind, pot_a, keys[block, None],
            0, 0, abs_caps, im_floors,
        )
        viol += counts
        site_root = eps * omega_root
        for i, gamma in enumerate(gammas):
            zeta[i, block] = crecip_vec(gamma - site_root - _sum_children(branch[i], q))
    for i in range(len(gammas)):
        _check_vec(zeta[i], abs_caps[i], im_floors[i], viol[i])
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
