"""Hot numeric kernels: cavity tree sweeps and directed-edge message passing.

Each operation has one path.  ``tree_batch`` is the one entry point of the
tree sweeps: it loops over blocks of samples and returns the root cavity
values, the values along one ray (the spine) and the violation counters of
a batch of balls (at eps = 0 one chain with a node per level), and the
distance profile (q + 1 branches) and the moment table (q branches) both
read what they need from it.  ``messages_advance`` is the one message
round; from zero messages its first round gives the bare site values
1/(gamma - eps*omega).  ``crecip_parts`` is the one reciprocal of both.

Every kernel is plain numpy.  Tree kernels sweep many samples at once,
level by level over a (samples x level width) array, in sample blocks of at
most ``_BLOCK_NODES`` nodes on the widest level they compute (a free-leaf
level is one value shared by every node and does not count), and sweep
every gamma of a grid over the potentials that a block draws once.  Each
level is updated in chunks of consecutive sample rows of at most a quarter
of that budget, so the temporaries of an update stay in cache while the
block, and with it the number of samples that share one numpy call on the
narrow top levels, stays large.  Message passing is vectorized across the
directed edges of a graph; its gathers write straight into their round
buffers (``np.take`` in "wrap" mode, which numpy does not buffer, unlike
the default "raise"), so the edge indices are range-checked once per call
and an index out of range raises instead of wrapping.  A call allocates
its level, round and scratch arrays once (``SweepWork`` for the trees) and
reuses them at every level, chunk, block and round, so its memory is paged
in once rather than at every level; the operations and their order are
those of the plain array expressions, elementwise, so neither chunks nor
blocks change a bit.
Results are reproducible bit for bit and depend neither on the blocking
nor on the other gammas of a grid: child sums run in child order, complex
reciprocals and products go through explicit formulas, and potentials come
from the counter-based streams of ``_rng``.  The golden digests in
``tests/test_kernels.py`` pin them, and ``tests/test_sample_blocks.py``
compares ``tree_batch`` with a per-sample loop and with one-gamma calls.

Conventions shared by every kernel:

* the spectral parameter is ``gamma = lam + 1j*eta`` with ``eta > 0``; tree
  kernels take a sequence of them with matching leaves, caps and floors, and
  a single gamma is a grid of length 1;
* a cavity value z satisfies ``Im z < 0``, ``|z| <= 1/eta`` and
  ``|Im z| >= eta / c_tilde**2``; kernels count violations of these bounds
  (with a 1e-12 relative slack for floating-point rounding) instead of
  raising, callers decide what to do with the counts.  A level or round
  whose values provably keep all three bounds is checked in one pass, from
  the squared moduli its reciprocals left behind; any other is counted
  node by node (``_check_vec``);
* tree nodes are numbered in level order: root 0, then level k holding
  ``branches * q**(k-1)`` nodes; node ids feed the potential stream;
* ``leaf`` is the free fixed-point value that seeds every leaf, or None for
  bare leaves 1/(gamma - eps*omega).

Violation counter layout (int64[4]): [sign, modulus-cap, imaginary-floor,
nodes-visited].
"""

from __future__ import annotations

import collections
import math

import numpy as np

from ._rng import draw_omega_vec, hash_u64_vec

_SLACK = 1e-12
# the smallest normal float64: below it a squared modulus loses relative precision
_TINY = 2.0**-1022


def crecip_vec(z: np.ndarray) -> np.ndarray:
    """1/z via the explicit conjugate formula (z.real - 1j*z.imag) / |z|**2.

    numpy and CPython disagree in the last bit of complex division; every
    kernel routes through this one formula so results stay bit-identical.
    Safe without Smith scaling: cavity denominators live in [eta, O(1/eta)].
    """
    return crecip_parts(z.real, -z.imag)


def crecip_parts(zr, ni, out=None, den=None, sq=None) -> np.ndarray:
    """1/(zr - 1j*ni) by ``crecip_vec``'s formula, from real arrays (or scalars).

    ``ni`` is the negated imaginary part of the denominator, so its quotient
    ni/den is the formula's -zi/den with no negation pass: the quotient of a
    negated operand is the negated quotient.  The cavity update of the tree
    levels and of the message rounds, gamma - eps*omega - sum, forms it as
    sum.imag - gamma.imag, which is -(gamma.imag - sum.imag) bit for bit
    unless the two cancel exactly (+0 against -0), and they never do while
    the children keep Im z < 0 < eta.  Taking the parts apart also saves the
    complex temporaries of that update, whose site term is real.  ``out``
    (complex) and ``den`` (float), of the broadcast shape, and ``sq`` (float,
    of the shape of ``ni``, for ni*ni) are optional buffers; without ``sq``
    numpy allocates the square.  ``den`` is left holding the squared modulus
    zr*zr + ni*ni, which ``_check_vec`` reads.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(zr), np.shape(ni)), dtype=np.complex128)
    den = np.multiply(zr, zr, out=den if den is not None else np.empty(out.shape))
    den += np.multiply(ni, ni, out=sq)
    np.divide(zr, den, out=out.real)
    np.divide(ni, den, out=out.imag)
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


def level_sizes(q: int, depth: int, branches: int) -> list[int]:
    """Nodes per sample on each level 1..depth."""
    return [branches * q**k for k in range(depth)]


def level_offsets(q: int, depth: int, branches: int) -> np.ndarray:
    """Level-order id of the first node in each level, index 1..depth."""
    off = np.zeros(depth + 1, dtype=np.int64)
    off[1] = 1
    for k in range(1, depth):
        off[k + 1] = off[k] + branches * q ** (k - 1)
    return off


def _check_vec(values: np.ndarray, abs_cap: float, im_floor: float, viol: np.ndarray,
               scratch=None, den=None, ni=None) -> None:
    """Add the bound violations of ``values`` to ``viol``.

    ``den``, when given, is the squared modulus of the denominators whose
    reciprocals ``values`` are, as ``crecip_parts`` leaves it, and ``ni``
    their negated imaginary parts.  Two reductions then decide most calls
    in one pass: if every den*cap**2 >= 1 (|z| = 1/sqrt(den) up to a few
    ulp, far inside the 1e-12 slack) and the largest Im z is below 0 and at
    most -floor, all three counts are 0.  When ``ni`` is one number shared
    by every denominator, the largest Im z is ni / den.max() exactly,
    without a pass over ``values``: it certifies only when it is below 0, so
    ni < 0, and a correctly rounded ni/den then grows with den (an array
    ``ni`` is not read).  The sign test is strict because the floor can be
    0, a NaN fails every comparison, and a den below the smallest normal
    float (whose rounding is not relative) is not trusted; any of these
    falls back to the exact counts, which take |z| per node and count a NaN
    on the sign bound (the other two comparisons pass it).  ``scratch``
    is an optional (float64 array, bool array) pair of the shape of
    ``values`` for the exact counts.
    """
    viol[3] += values.size
    if den is not None and values.size:
        low = den.min()
        if low >= _TINY and low * (abs_cap * abs_cap) >= 1.0:
            top = values.imag.max() if ni is None or np.ndim(ni) else ni / den.max()
            if top < 0.0 and top <= -(im_floor * (1.0 - _SLACK)):
                return
    if scratch is None:
        scratch = np.empty(values.shape), np.empty(values.shape, dtype=bool)
    scratch, mask = scratch
    im = values.imag
    # not (Im z < 0) rather than Im z >= 0, so that a NaN counts as a sign violation
    viol[0] += values.size - int(np.count_nonzero(np.less(im, 0.0, out=mask)))
    np.abs(values, out=scratch)
    viol[1] += int(np.count_nonzero(np.greater(scratch, abs_cap * (1.0 + _SLACK), out=mask)))
    # -im < floor exactly when im > -floor: negation is exact
    viol[2] += int(np.count_nonzero(np.greater(im, -(im_floor * (1.0 - _SLACK)), out=mask)))


# ----------------------------------------------------------------------
# cavity recursion on tree balls
# ----------------------------------------------------------------------

# Samples are swept together in blocks of at most this many tree nodes on
# the widest level a sweep computes, and every level is updated in chunks of
# consecutive sample rows of at most a quarter of that (``_row_chunks``).
# A level update keeps about 60 bytes a node in flight (child sums, the parts
# of the denominators, the output chunk, potentials, mask), so a 2**14-node
# chunk stays near 1 MB, within a 2 MB per-core L2; only the two level arrays
# and the potentials span the whole block.  On the moment table (q=3,
# depth 8, free leaves: 29 samples a block) 2**17 was about 7% faster and
# raised peak RSS by 2 MB (5%).
_BLOCK_NODES = 2**16


def _row_chunks(rows, width):
    """Slices of consecutive sample rows, first to last, that update ``rows``
    rows of a level ``width`` nodes wide: each holds at most
    ``_BLOCK_NODES // 4`` nodes, or one row if a row alone is wider."""
    step = max(1, _BLOCK_NODES // 4 // width)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _drawn_sizes(sizes, free_leaves):
    """Widths of the levels a sweep draws potentials for: all but a free-leaf level."""
    return sizes[:-1] if free_leaves else sizes


# views of a chunk's scratch: child sums, real and negated imaginary parts of
# the denominators, their squared modulus, the (float, mask) scratch of the
# exact checks (den is free once checked) and the uint64 scratch of the draws
_Chunk = collections.namedtuple("_Chunk", "sums zr ni den check bits")


class SweepWork:
    """Buffers that a tree sweep reuses from level to level and block to block.

    Sized for blocks of up to ``rows`` samples of a ball whose levels hold
    ``sizes`` nodes per sample.  The level values (two, used in turn) and the
    potentials of every level span the whole block.  The scratch of a level
    update spans one chunk of rows (``_row_chunks``), never more than the
    block's widest level: the child sums, the real and negated imaginary
    parts of the denominators and their squared modulus (also the float
    scratch of the checks), the check mask and the uint64 scratch of the
    potential draws.  With ``free_leaves`` the deepest level is one value
    shared by every node of every sample: it takes no cells and no
    potentials.  Every array an update needs is a view of the first cells
    of one of these, so a sweep touches the same pages at every level and
    chunk.
    """

    def __init__(self, rows: int, sizes, free_leaves: bool = False):
        drawn = _drawn_sizes(sizes, free_leaves)
        chunk = max((_row_chunks(rows, w)[0].stop * w for w in drawn), default=0)
        # level k lives in levels[k % 2], sized by the widest level of its parity
        self.levels = tuple(
            np.empty(rows * max(drawn[1 - parity :: 2], default=0), dtype=np.complex128)
            for parity in (0, 1)
        )
        self.scratch = {
            "sums": np.empty(chunk, dtype=np.complex128),
            "zr": np.empty(chunk),
            "ni": np.empty(chunk),
            "den": np.empty(chunk),
            "mask": np.empty(chunk, dtype=bool),
            "bits0": np.empty(chunk, dtype=np.uint64),
            "bits1": np.empty(chunk, dtype=np.uint64),
        }
        self.sites = np.empty(rows * sum(drawn))
        self._chunks = {}

    def level(self, k: int, shape: tuple) -> np.ndarray:
        """Level k's values: the first cells of the level array of k's parity."""
        return self.levels[k % 2][: math.prod(shape)].reshape(shape)

    def chunk(self, shape: tuple) -> _Chunk:
        """The scratch of one chunk update as arrays of ``shape``, made once per shape."""
        views = self._chunks.get(shape)
        if views is None:
            v = {name: b[: math.prod(shape)].reshape(shape) for name, b in self.scratch.items()}
            views = _Chunk(v["sums"], v["zr"], v["ni"], v["den"], (v["den"], v["mask"]),
                           (v["bits0"], v["bits1"]))
            self._chunks[shape] = views
        return views


def _sum_children(kids, count, out=None):
    """Sum of ``count`` children along the last axis, in child order from 0.

    The same bits as a scalar loop ``s = 0j; s += z``: the first pass adds
    child 0 to 0j (which turns a -0.0 part into +0.0) instead of filling
    zeros and adding.  A last axis of length 1 holds one value shared by all
    ``count`` children.  ``out`` is an optional complex buffer of the
    result's shape.
    """
    total = np.empty(kids.shape[:-1], dtype=np.complex128) if out is None else out
    np.add(kids[..., 0], 0.0, out=total)
    for j in range(1, count):
        total += kids[..., j % kids.shape[-1]]
    return total


def cavity_levels(q, sizes, gamma, leaf, site, work):
    """The cavity recursion z = 1/(gamma - site - sum of q children), leaves first.

    Level k = 1..depth holds (samples, sizes[k-1]) values, in level order
    along the last axis.  A level kept at the size of the level above it
    holds one value shared by all q children of each parent: with every
    size 1 this is the eps = 0 chain, where all siblings coincide.
    ``site(k)`` returns eps*omega on level k for every sample.  Bare leaves
    call it; free leaves (``leaf`` not None) do not: they are one value,
    shared by every node of every sample, and every node of the level above
    sums the same q copies of it, so that level's denominators share one
    negated imaginary part.

    Each level is updated in chunks of consecutive sample rows
    (``_row_chunks``).  Yields (k, rows, values, den, ni) per chunk, for
    k = depth, ..., 1: the samples ``rows`` (a slice), their values, and
    the squared moduli ``den`` and negated imaginary parts ``ni`` of the
    denominators (an array, or one number on the bare leaf level and above
    free leaves), as ``_check_vec`` takes them.  A free-leaf level comes as
    one read-only (1, width) chunk for ``rows = slice(None)``, with den and
    ni None.  values and den live in the buffers of ``work`` (a
    ``SweepWork``); values are overwritten two levels later, den at the
    next chunk.
    """
    depth = len(sizes)
    values = None
    for k in range(depth, 0, -1):
        width = sizes[k - 1]
        if values is None and leaf is not None:
            values = np.broadcast_to(np.complex128(leaf), (1, width))
            yield k, slice(None), values, None, None
            continue
        pot = site(k)
        if values is None:
            kids, total, ni = None, None, -gamma.imag
        elif k == depth - 1 and leaf is not None:
            kids, total = None, _sum_children(values[:, :1, None], q)[0, 0]
            ni = total.imag - gamma.imag
        else:
            kids = values.reshape(values.shape[0], width, -1)
        m = pot.shape[0]
        level = work.level(k, (m, width))
        for rows in _row_chunks(m, width):
            chunk = work.chunk((rows.stop - rows.start, width))
            zr = np.subtract(gamma.real, pot[rows], out=chunk.zr)
            sq = None
            if kids is not None:
                total = _sum_children(kids[rows], q, chunk.sums)
                ni = np.subtract(total.imag, gamma.imag, out=chunk.ni)
                # the child sums are spent once zr and ni are built
                sq = chunk.sums.view(np.float64)[:, :width]
            if total is not None:
                zr -= total.real
            yield k, rows, crecip_parts(zr, ni, level[rows], chunk.den, sq), chunk.den, ni
        values = level


def tree_batch(q, depth, branches, eps, gammas, leaves, pot_kind, pot_a, batch_key, samples,
               spine_len, ray_branch, abs_caps, im_floors):
    """Cavity sweeps of ``samples`` independent depth-``depth`` balls whose
    root has ``branches`` subtrees, at every gamma of ``gammas`` (with
    matching ``leaves``, ``abs_caps`` and ``im_floors``) over the same balls.

    Sample s draws its potentials from the distribution named ``pot_kind``
    (a ``PotentialSpec.kind``) on [-pot_a, pot_a], in the stream keyed by
    ``hash_u64(batch_key, s)``.  Samples are swept in blocks of consecutive
    samples holding at most ``_BLOCK_NODES`` nodes on the widest level the
    sweep computes, or one sample if that level alone is wider (a free-leaf
    level, when every gamma has one, is one shared value and not counted);
    all blocks share one ``SweepWork``.  A block draws its potentials level
    by level, once and in the row chunks of the level updates, and sweeps
    every gamma over the same draws with its own leaf, cap and floor.
    Returns (root cavity values 1/(gamma - eps*omega_root - sum of the
    branch values), taken in each row chunk of level 1, shape
    (G, samples); cavity values at depths 1..spine_len along the first ray
    of branch ``ray_branch``, shape (G, samples, spine_len); violation
    counters of levels 1..depth, shape (G, 4)).  The roots are not checked
    here: with q + 1 branches a root is -G(o, o), with q it is a cavity
    value, and each caller checks its roots itself.

    At eps = 0 every ball is the same and all siblings coincide, so the
    batch is one sample (m = 1 in the shapes above) with one node per level,
    the layout of ``cavity_levels`` in which a level holds one value shared
    by all q children of each parent: no potentials are drawn (the sites
    are zeros), the spine is read at that one node whatever ``ray_branch``
    is, and the counters count one node per level.
    """
    chain = eps == 0.0
    if chain:
        samples, sizes = 1, [1] * depth
    else:
        offsets = level_offsets(q, depth, branches)
        sizes = level_sizes(q, depth, branches)
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))[:, None]
    free = all(leaf is not None for leaf in leaves)
    per_block = max(1, _BLOCK_NODES // max(_drawn_sizes(sizes, free) or sizes))
    work = SweepWork(min(per_block, samples), sizes, free)
    root = np.empty((len(gammas), samples), dtype=np.complex128)
    spine = np.empty((len(gammas), samples, spine_len), dtype=np.complex128)
    viol = np.zeros((len(gammas), 4), dtype=np.int64)
    for start in range(0, samples, per_block):
        block = slice(start, min(start + per_block, samples))
        m = block.stop - start
        sites = {}

        def site(k):
            if chain:
                return np.zeros((m, 1))
            if k not in sites:
                width = sizes[k - 1]
                ids = offsets[k] + np.arange(width, dtype=np.int64)
                first = m * (offsets[k] - 1)
                sites[k] = work.sites[first : first + m * width].reshape(m, width)
                for rows in _row_chunks(m, width):
                    out = sites[k][rows]
                    draw_omega_vec(pot_kind, pot_a, keys[block][rows], ids, out,
                                   work.chunk(out.shape).bits)
                    out *= eps
            return sites[k]

        site_root = np.zeros(m) if chain else eps * draw_omega_vec(
            pot_kind, pot_a, keys[block], np.zeros(1, dtype=np.int64))[:, 0]
        roots, rays = root[:, block], spine[:, block]
        for i, gamma in enumerate(gammas):
            for k, rows, values, den, ni in cavity_levels(q, sizes, gamma, leaves[i], site, work):
                if den is None:
                    # a free-leaf level: one value for all m * width nodes
                    counts = np.zeros(4, dtype=np.int64)
                    _check_vec(values[:, :1], abs_caps[i], im_floors[i], counts)
                    viol[i] += counts * (m * values.shape[1])
                else:
                    # den is read before the exact counts overwrite it
                    _check_vec(values, abs_caps[i], im_floors[i], viol[i],
                               work.chunk(values.shape).check, den, ni)
                if k <= spine_len:
                    rays[i, rows, k - 1] = values[:, 0 if chain else ray_branch * q ** (k - 1)]
                if k == 1:
                    roots[i, rows] = crecip_vec(
                        gamma - site_root[rows] - _sum_children(values, branches))
    return root, spine, viol


# ----------------------------------------------------------------------
# message passing on the directed edges of a finite graph
# ----------------------------------------------------------------------


def messages_advance(nbrs, rev, omega, eps, gamma, msg, rounds, abs_cap, im_floor):
    """``rounds`` cavity updates of every directed-edge message.

    Edge ids are vertex-major (u -> its j-th neighbor is u*deg + j), so row u
    of the (vertices, deg) view holds the messages out of u, ``nbrs[e]`` is
    the target vertex of edge e and ``rev[e]`` its reverse edge.  Returns
    (messages, violation counters of the updates); ``msg`` is left as it is.
    Every round reuses the buffers of the first, in the order of operations
    of ``crecip_vec(gamma - site_pot - (site_sum[nbrs] - msg[rev]))`` with
    the imaginary part negated as ``crecip_parts`` takes it.  The gathers
    run in ``np.take``'s "wrap" mode, which writes straight into its output
    (the default "raise" mode buffers it), so the indices are range-checked
    once per call instead: an index out of range raises IndexError.
    """
    if nbrs.size and not (0 <= nbrs.min() and nbrs.max() < omega.size):
        raise IndexError(f"edge target out of range for {omega.size} vertices")
    if rev.size and not (0 <= rev.min() and rev.max() < msg.size):
        raise IndexError(f"reverse edge out of range for {msg.size} edges")
    viol = np.zeros(4, dtype=np.int64)
    deg = nbrs.size // omega.size
    g = complex(gamma)
    # the real part of gamma - site_pot; its imaginary part is g.imag - 0.0 = g.imag
    base = g.real - eps * omega[nbrs]
    outs = (np.empty_like(msg), np.empty_like(msg))
    site_sum = np.empty(omega.size, dtype=np.complex128)
    diff = np.empty_like(msg)
    sq = diff.view(np.float64)[: msg.size]  # diff is free once zr and ni are built
    zr, ni, den = np.empty(msg.size), np.empty(msg.size), np.empty(msg.size)
    scratch = zr, np.empty(msg.size, dtype=bool)  # zr is free once msg is built
    for r in range(rounds):
        out = outs[r % 2]
        _sum_children(msg.reshape(-1, deg), deg, site_sum)
        np.take(site_sum, nbrs, out=diff, mode="wrap")
        diff -= np.take(msg, rev, out=out, mode="wrap")
        np.subtract(base, diff.real, out=zr)
        np.subtract(diff.imag, g.imag, out=ni)
        msg = crecip_parts(zr, ni, out, den, sq)
        _check_vec(msg, abs_cap, im_floor, viol, scratch, den)
    return msg, viol
