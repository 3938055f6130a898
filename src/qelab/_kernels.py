"""Hot numeric kernels: cavity tree sweeps and directed-edge message passing.

Every kernel is plain numpy, vectorized across the nodes of one tree level
or across the directed edges of a graph.  Results are reproducible bit for
bit: child sums run in child order, complex reciprocals go through one
explicit formula, and potentials come from the counter-based streams of
``_rng``.  The golden digests in ``tests/test_kernels.py`` pin them.

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


def segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sums in strict left-to-right order.

    Matches a scalar accumulation loop bit for bit, unlike np.add.reduceat,
    whose association differs.
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    out = np.zeros(n, dtype=values.dtype)
    for j in range(int(deg.max())):
        mask = deg > j
        out[mask] = out[mask] + values[indptr[:-1][mask] + j]
    return out


# ----------------------------------------------------------------------
# cavity recursion on tree balls
# ----------------------------------------------------------------------


def cavity_levels(q, sizes, gamma, leaf, site):
    """The cavity recursion z = 1/(gamma - site - sum of q children), leaves first.

    ``sizes[k-1]`` values are kept at level k = 1..depth, in level order.
    A level kept at the size of the level above it holds one value shared
    by all q children of each parent: with every size 1 this is the eps = 0
    chain, where all siblings coincide.  ``site(k)`` returns eps*omega on
    level k; bare leaves call it, free leaves (``leaf`` not None) do not.
    Yields (k, values) for k = depth, ..., 1.
    """
    depth = len(sizes)
    values = None
    for k in range(depth, 0, -1):
        width = sizes[k - 1]
        if values is not None:
            kids = values.reshape(width, -1)
            child_sum = np.zeros(width, dtype=np.complex128)
            for j in range(q):
                child_sum = child_sum + kids[:, j % kids.shape[1]]
            values = crecip_vec(gamma - site(k) - child_sum)
        elif leaf is None:
            values = crecip_vec(gamma - site(k))
        else:
            values = np.full(width, leaf, dtype=np.complex128)
        yield k, values


def cavity_sweep(q, depth, branches, eps, gamma, leaf, pot_kind, pot_a, key,
                 spine_len, ray_branch, abs_cap, im_floor):
    """One disorder realization swept over a depth-``depth`` tree ball.

    Potentials are drawn level by level from the stream keyed by ``key``.
    The spine records the cavity values at depths 1..spine_len along the
    first ray of branch ``ray_branch``.  Returns (branch values at the
    root, spine, root-site potential, violation counters).
    """
    offsets = level_offsets(q, depth, branches)
    sizes = [branches * q**k for k in range(depth)]

    def site(k):
        ids = offsets[k] + np.arange(sizes[k - 1], dtype=np.int64)
        return eps * draw_omega_vec(pot_kind, pot_a, key, ids)

    viol = np.zeros(4, dtype=np.int64)
    spine = np.empty(spine_len, dtype=np.complex128)
    for k, values in cavity_levels(q, sizes, gamma, leaf, site):
        _check_vec(values, abs_cap, im_floor, viol)
        if k <= spine_len:
            spine[k - 1] = values[ray_branch * q ** (k - 1)]
    omega_root = float(draw_omega_vec(pot_kind, pot_a, key, np.zeros(1, dtype=np.int64))[0])
    return values, spine, omega_root, viol


def ray_batch(q, depth, eps, gamma, leaf, pot_kind, pot_a, batch_key, samples,
              r_max, ray_branch, abs_cap, im_floor):
    """Im G(root, y_r) for r = 0..r_max on ``samples`` independent balls.

    y_r is the depth-r node on the first ray of branch ``ray_branch``.
    Returns (array of shape (samples, r_max + 1), summed violation counters).
    """
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    im = np.empty((samples, r_max + 1), dtype=np.float64)
    viol = np.zeros(4, dtype=np.int64)
    for m in range(samples):
        branch, spine, omega_root, counts = cavity_sweep(
            q, depth, q + 1, eps, gamma, leaf, pot_kind, pot_a, int(keys[m]),
            r_max, ray_branch, abs_cap, im_floor,
        )
        viol += counts
        s = 0.0j
        for z in branch:
            s += z
        g = crecip_scalar(eps * omega_root - gamma + s)
        im[m, 0] = g.imag
        for r in range(1, r_max + 1):
            g = g * spine[r - 1]
            im[m, r] = g.imag
    return im, viol


def cavity_batch(q, depth, eps, gamma, leaf, pot_kind, pot_a, batch_key, samples,
                 abs_cap, im_floor):
    """Root cavity values of ``samples`` independent q-branch balls.

    Returns (complex array of length samples, summed violation counters).
    """
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    zeta = np.empty(samples, dtype=np.complex128)
    viol = np.zeros(4, dtype=np.int64)
    for m in range(samples):
        branch, _, omega_root, counts = cavity_sweep(
            q, depth, q, eps, gamma, leaf, pot_kind, pot_a, int(keys[m]),
            0, 0, abs_cap, im_floor,
        )
        viol += counts
        s = 0.0j
        for z in branch:
            s += z
        zeta[m] = crecip_scalar(gamma - eps * omega_root - s)
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


def messages_advance(indptr, nbrs, rev, omega, eps, gamma, msg, rounds, abs_cap, im_floor):
    """``rounds`` cavity updates of every directed-edge message.

    Returns (messages, violation counters of the updates).
    """
    viol = np.zeros(4, dtype=np.int64)
    site_pot = eps * omega[nbrs]
    for _ in range(rounds):
        site_sum = segment_sums(msg, indptr)
        msg = crecip_vec(gamma - site_pot - (site_sum[nbrs] - msg[rev]))
        _check_vec(msg, abs_cap, im_floor, viol)
    return msg, viol
