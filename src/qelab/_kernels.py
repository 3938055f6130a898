"""Hot numeric kernels: cavity tree sweeps and directed-edge message passing.

Each operation has one path.  ``tree_batch`` is the one entry point of the
tree sweeps: it loops over blocks of samples and returns the root cavity
values, the values along one ray (the spine) and the violation counters of
a batch of balls (at eps = 0 one chain with a node per level), and the
distance profile (q + 1 branches) and the moment table (q branches) both
read what they need from it.  ``messages_advance`` runs the message
rounds; messages start at zero, so the first round gives the bare site
values 1/(gamma - eps*omega).  ``crecip_parts`` is the one reciprocal of
both.

Every kernel is plain numpy.  Tree kernels sweep many samples at once,
level by level, in sample blocks of at most ``_BLOCK_NODES`` nodes on the
widest level they compute (a free-leaf level is one value shared by every
node and does not count), and sweep every gamma of a grid over the
potentials that a block draws once, before its first gamma.  The root is
level 0 of a sweep, one node wide, and takes the update of every other
level.  A level is two float arrays, its real and imaginary parts, of
(level width x samples): a row per tree position, the positions in
sibling-blocked order (child j of the parent at position p of a level w
wide at position j*w + p), so the children j of a run of parents are one
run of rows and every update reads and writes contiguous memory.  Memory
and cache have one budget each: each level is updated in chunks of
consecutive rows of at most ``_CHUNK_NODES`` nodes, so the temporaries of
an update stay in cache, while the block, and with it the number of
samples that share one numpy call on the narrow top levels, the root and
the spine, grows with ``_BLOCK_NODES`` alone.  Message passing is
vectorized across the directed edges of a graph, numbered slot-major (edge
j*n + v is vertex v's j-th edge) and held so inside a call: row j holds the
messages on every vertex's j-th edge, real and imaginary parts apart, so
every pass of a round runs along contiguous rows, and one gather per round
by the reverse edges moves each new value onto its edge (``np.take`` in
"wrap" mode, which numpy does not buffer, unlike the default "raise"; the
reverse edges are checked once per call, so an index out of range raises
instead of wrapping).  One call runs every round a caller needs and returns
the last rounds it asks for.  A call allocates its level, round and scratch
arrays once (``SweepWork`` for the trees) and reuses them at every level,
chunk, block and round, so its memory is paged in once rather than at every
level.  The operations and their order are those of the plain array
expressions, elementwise, so neither chunks, blocks nor the slot layout
change a bit.  Results are reproducible bit for
bit and depend neither on the blocking nor on the other gammas of a grid:
child sums run in child order, complex reciprocals and products go through
explicit formulas, and potentials come from the counter-based streams of
``_rng``.  The golden digests in ``tests/test_kernels.py`` pin them, and
``tests/test_sample_blocks.py`` compares ``tree_batch`` with a per-sample
loop and with one-gamma calls.

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
  ``branches * q**(k-1)`` nodes; node ids feed the potential stream, so a
  node draws the same potential in the sweeps' sibling-blocked layout;
* ``leaf`` is the free fixed-point value that seeds every leaf, or None for
  bare leaves 1/(gamma - eps*omega).

Violation counter layout (int64[4]): [sign, modulus-cap, imaginary-floor,
nodes-visited].
"""

from __future__ import annotations

import collections

import numpy as np

from ._rng import draw_omega_vec, hash_u64_vec

_SLACK = 1e-12
# the smallest normal float64: below it a squared modulus loses relative precision
_TINY = 2.0**-1022
_amin, _amax = np.minimum.reduce, np.maximum.reduce


def crecip_vec(z: np.ndarray) -> np.ndarray:
    """1/z via the explicit conjugate formula (z.real - 1j*z.imag) / |z|**2.

    numpy and CPython disagree in the last bit of complex division; every
    kernel routes through this one formula so results stay bit-identical.
    Safe without Smith scaling: cavity denominators live in [eta, O(1/eta)].
    """
    out = np.empty(np.shape(z), dtype=np.complex128)
    crecip_parts(z.real, -z.imag, out.real, out.imag)
    return out


def crecip_parts(zr, ni, re=None, im=None, den=None, sq=None):
    """1/(zr - 1j*ni) by ``crecip_vec``'s formula, from real arrays (or
    scalars) into real and imaginary parts: returns (re, im).

    ``ni`` is the negated imaginary part of the denominator, so its quotient
    ni/den is the formula's -zi/den with no negation pass: the quotient of a
    negated operand is the negated quotient.  The cavity update of the tree
    levels and of the message rounds, gamma - eps*omega - sum, forms it as
    sum.imag - gamma.imag, which is -(gamma.imag - sum.imag) bit for bit
    unless the two cancel exactly (+0 against -0), and they never do while
    the children keep Im z < 0 < eta.  Taking the parts apart also saves the
    complex temporaries of that update, whose site term is real.  ``re``,
    ``im`` and ``den`` (float, of the broadcast shape; the parts may be the
    ``.real`` and ``.imag`` of a complex array, or ``zr`` and ``ni``
    themselves) and ``sq`` (float, of the shape of ``ni``, for ni*ni) are
    optional buffers; without ``sq`` numpy
    allocates the square.  ``den`` is left holding the squared modulus
    zr*zr + ni*ni, which ``_check_vec`` reads.  The squares are
    ``np.square``, the bits of x*x in about half the time of
    ``np.multiply(x, x)``.
    """
    if den is None:
        den = np.empty(np.broadcast_shapes(np.shape(zr), np.shape(ni)))
    np.square(zr, out=den)
    den += np.square(ni, out=sq)
    re = np.divide(zr, den, out=re)
    im = np.divide(ni, den, out=im)
    return re, im


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


def _check_vec(re, im, abs_cap: float, im_floor: float, viol: np.ndarray,
               scratch=None, den=None, ni=None) -> None:
    """Add the bound violations of the values with real parts ``re`` and
    imaginary parts ``im`` (float arrays of one shape) to ``viol``.

    ``den``, when given, is the squared modulus of the denominators whose
    reciprocals the values are, as ``crecip_parts`` leaves it, and ``ni``
    their negated imaginary parts.  Two reductions then decide most calls
    in one pass: if every den*cap**2 >= 1 (|z| = 1/sqrt(den) up to a few
    ulp, far inside the 1e-12 slack) and the largest Im z is below 0 and at
    most -floor, all three counts are 0.  When ``ni`` is one number shared
    by every denominator, the largest Im z is ni / den.max() exactly,
    without a pass over ``im``: it certifies only when it is below 0, so
    ni < 0, and a correctly rounded ni/den then grows with den (an array
    ``ni`` is not read).  The sign test is strict because the floor can be
    0, a NaN fails every comparison, and a den below the smallest normal
    float (whose rounding is not relative) is not trusted; any of these
    falls back to the exact counts, which take |z| per node as
    ``np.hypot(re, im)``, the bits of CPython's ``abs`` of a complex, and
    count a NaN on the sign bound (the other two comparisons pass it).
    ``scratch`` is an optional (float64 array, bool array) pair of the
    shape of the parts for the exact counts.
    """
    size = im.size
    viol[3] += size
    if den is not None and size:
        # the ufunc reductions without the wrappers of den.min() and im.max(),
        # and Python floats for the comparisons
        low = float(_amin(den, None))
        if low >= _TINY and low * (abs_cap * abs_cap) >= 1.0:
            if ni is None or isinstance(ni, np.ndarray):
                top = float(_amax(im, None))
            else:
                top = ni / float(_amax(den, None))
            if top < 0.0 and top <= -(im_floor * (1.0 - _SLACK)):
                return
    if scratch is None:
        scratch = np.empty(im.shape), np.empty(im.shape, dtype=bool)
    scratch, mask = scratch
    # not (Im z < 0) rather than Im z >= 0, so that a NaN counts as a sign violation
    viol[0] += im.size - int(np.count_nonzero(np.less(im, 0.0, out=mask)))
    np.hypot(re, im, out=scratch)
    viol[1] += int(np.count_nonzero(np.greater(scratch, abs_cap * (1.0 + _SLACK), out=mask)))
    # -im < floor exactly when im > -floor: negation is exact
    viol[2] += int(np.count_nonzero(np.greater(im, -(im_floor * (1.0 - _SLACK)), out=mask)))


# ----------------------------------------------------------------------
# cavity recursion on tree balls
# ----------------------------------------------------------------------

# Two budgets, one for memory and one for cache.  Samples are swept together
# in blocks of at most _BLOCK_NODES tree nodes on the widest level a sweep
# computes: only the two level arrays and the potentials span a whole block,
# and the more samples a block holds, the fewer times the narrow top levels,
# the root and the spine pay their fixed numpy-call cost.  Every level is
# updated in chunks of consecutive rows (tree positions, each holding the
# block's samples) of at most _CHUNK_NODES nodes (``_row_chunks``).  A
# level update keeps about 60 bytes a node in flight (child sums, the parts
# of the denominators, the output chunk, potentials, mask), so a 2**14-node
# chunk stays near 1 MB, within a 2 MB per-core L2.  On the moment table
# (q=3, depth 8, free leaves: 59 samples a block, 29 at 2**16) 2**17 blocks
# took about 7% less time than 2**16 blocks (fastest of 15 in-process runs,
# 2-vCPU Xeon) for 2.2 MB more peak RSS.
_BLOCK_NODES = 2**17
_CHUNK_NODES = 2**14


def _row_chunks(rows, length):
    """Slices of consecutive rows, first to last, that update the ``rows``
    rows of ``length`` nodes of a level array: each holds at most
    ``_CHUNK_NODES`` nodes, or one row if a row alone is longer."""
    step = max(1, _CHUNK_NODES // length)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _drawn_sizes(sizes, free_leaves):
    """Widths of the levels a sweep computes and draws potentials for, from
    the root: all but a free-leaf level."""
    return sizes[:-1] if free_leaves else sizes


# one chunk update of a level: its rows, the views of its potentials and of
# its output parts, the (real, imaginary) lists of its children's views on
# the level below (None on the deepest level a sweep computes) and the views
# of the ``SweepWork.scratch`` buffers of its shape
_Update = collections.namedtuple("_Update", "rows pot re im kids scratch")


class SweepWork:
    """Buffers that a tree sweep reuses from level to level and block to block.

    Sized for blocks of up to ``samples`` samples of a ball whose levels
    0..depth hold ``sizes`` nodes per sample (level 0, the root, one).  The
    level values (two levels, used in turn, each as a real and an imaginary
    float array) and the potentials of every level span the whole block.
    The scratch of a level update spans one chunk of rows (``_row_chunks``),
    never more than the block's widest level: the real child sums, the real
    and negated imaginary parts of the denominators and their squared
    modulus (also the float scratch of the checks), the check mask and the
    uint64 scratch of the potential draws.  With ``free_leaves`` the deepest
    level is one value shared by every node of every sample: it takes no
    cells and no potentials.  Every array an update needs is a view of the
    first cells of one of these, so a sweep touches the same pages at every
    level and chunk, and the views are made once per block shape
    (``block``).
    """

    def __init__(self, samples: int, sizes, free_leaves: bool = False):
        self.sizes, drawn = sizes, _drawn_sizes(sizes, free_leaves)
        self.computed = len(drawn)
        # a chunk of a block of at most ``samples`` samples: see _row_chunks
        chunk = min(max(_CHUNK_NODES, samples), samples * max(drawn))
        # level k lives in levels[k % 2], sized by the widest level of its parity
        self.levels = tuple(
            (np.empty(cells), np.empty(cells))
            for cells in (samples * max(drawn[parity::2], default=0) for parity in (0, 1))
        )
        self.scratch = {
            "sums": np.empty(chunk),
            "zr": np.empty(chunk),
            "ni": np.empty(chunk),
            "den": np.empty(chunk),
            "mask": np.empty(chunk, dtype=bool),
            "bits0": np.empty(chunk, dtype=np.uint64),
            "bits1": np.empty(chunk, dtype=np.uint64),
        }
        # zeros: a sweep at eps = 0 draws no potentials
        self.sites = np.zeros(samples * sum(drawn))
        self._blocks = {}

    def block(self, m: int) -> dict:
        """The level updates of a block of ``m`` samples, made once per block
        shape: each level k the sweep computes, from the deepest one up to
        the root at 0, maps to its (real, imaginary) arrays of (width, m) and
        its chunk updates (``_Update``).  Level k's potentials are the
        (width, m) array that follows those of levels 0..k-1 in ``sites``,
        and child j of its row p is row j*width + p of level k + 1, so the
        children j of a run of rows are one run of rows.
        """
        layout = self._blocks.get(m)
        if layout is None:
            layout, below = {}, None
            for k in range(self.computed - 1, -1, -1):
                width = self.sizes[k]
                first = m * sum(self.sizes[:k])
                pot = self.sites[first : first + m * width].reshape(width, m)
                level = tuple(part[: m * width].reshape(width, m) for part in self.levels[k % 2])
                kids = None if below is None else [part.reshape(-1, width, m) for part in below]
                layout[k] = level, [
                    _Update(rows, pot[rows], level[0][rows], level[1][rows],
                            None if kids is None else tuple(list(part[:, rows]) for part in kids),
                            {name: b[: pot[rows].size].reshape(pot[rows].shape)
                             for name, b in self.scratch.items()})
                    for rows in _row_chunks(width, m)
                ]
                below = level
            self._blocks[m] = layout
        return layout


def _sum_children(kids, count, out=None):
    """Sum of ``count`` children along the first axis, in child order from 0.

    The same bits as a scalar loop ``s = 0j; s += z``: the first pass adds
    child 0 to 0 (which turns a -0.0 part into +0.0) instead of filling
    zeros and adding.  A first axis of length 1 holds one value shared by
    all ``count`` children.  ``out`` is an optional buffer of the result's
    shape.  Child j is ``kids[j]``, one contiguous block when the children
    of a tree level or the message slots are stored child-major.
    """
    total = np.add(kids[0], 0.0, out=out)
    for j in range(1, count):
        total += kids[j % len(kids)]
    return total


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
    all blocks share one ``SweepWork``, and blocks of one shape share the
    views of its updates.  A block draws the potentials of all its levels
    once, in the row chunks of the level updates, before its first gamma,
    and sweeps every gamma over the same draws with its own leaf, cap and
    floor.  Returns (root cavity values 1/(gamma - eps*omega_root - sum of
    the branch values), shape (G, samples); cavity values at depths
    1..spine_len along the first ray of branch ``ray_branch``, shape
    (G, samples, spine_len); violation counters of levels 1..depth, shape
    (G, 4)).  The roots are not checked here: with q + 1 branches a root is
    -G(o, o), with q it is a cavity value, and each caller checks its roots
    itself.

    The recursion z = 1/(gamma - eps*omega - sum of the children) runs
    leaves first, level by level up to the root at level 0, one node with
    ``branches`` children (a node of any other level has q).  The root is
    one more level of the same update, its node drawing its potential with
    the others, and is copied out of the level arrays.  Level k of a block
    of m samples is a pair of float arrays, the real and the imaginary
    parts, of shape (width, m): row p holds position p of every sample, and
    the positions are in sibling-blocked order, child j of the parent at
    position p of a level w wide at position j*w + p.  The children j of a
    run of parent rows are then one run of rows, so a child sum is
    contiguous slices added in child order from 0, every update, reciprocal
    and check reads and writes contiguous memory, and the spine of branch b
    is row b of every level.  Node p of level k draws its potential at its
    level-order id first_k + perm_k[p] (first_k the id of the level's first
    node), where perm_0 = [0] and
    perm_{k+1}[j*w + p] = perm_k[p]*c + j for c children a node (perm_1 is
    the identity: level 1 is in root-sum order), so no draw depends on the
    layout.  Each level is updated in chunks of consecutive rows
    (``_row_chunks``), each below the root checked from the squared moduli
    its reciprocals leave behind (``_check_vec``).  Bare leaves (``leaf``
    None) are 1/(gamma - eps*omega); a free leaf is one value shared by
    every node of every sample, checked once per call for all of them (its
    counters scaled by samples x width), and every node of the level above
    sums the same copies of it (``branches`` of them when that level is the
    root), so that level's denominators share one negated imaginary part.

    At eps = 0 every ball is the same and all siblings coincide, so the
    batch is one sample (m = 1 in the shapes above) with one node per level,
    a level of the width of the level above it holding one value shared by
    all the children: no potentials are drawn (the sites are zeros), the
    spine is read at that one node whatever ``ray_branch`` is, and the
    counters count one node per level.
    """
    chain = eps == 0.0
    if chain:
        samples, sizes, ray = 1, [1] * (depth + 1), 0
    else:
        sizes, ray = [1, *level_sizes(q, depth, branches)], ray_branch
        # each level's level-order ids in sibling-blocked order, as a column
        ids, perm, first = [], np.zeros(1, dtype=np.int64), 0
        for k in range(depth + 1):
            ids.append((first + perm)[:, None])
            first += perm.size
            count = branches if k == 0 else q
            perm = (perm * count + np.arange(count)[:, None]).ravel()
    keys = hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    free = all(leaf is not None for leaf in leaves)
    per_block = max(1, _BLOCK_NODES // max(_drawn_sizes(sizes, free)))
    work = SweepWork(min(per_block, samples), sizes, free)
    root = np.empty((len(gammas), samples), dtype=np.complex128)
    spine = np.empty((len(gammas), samples, spine_len), dtype=np.complex128)
    viol = np.zeros((len(gammas), 4), dtype=np.int64)
    # each free leaf is one value shared by every node of every sample: its
    # level (a read-only view for all of them), checked once for the whole
    # call, and the sum of copies of it that each node of the level above adds
    free_levels = {}
    for i, leaf in enumerate(leaves):
        if leaf is not None:
            leaf = complex(leaf)
            parts = np.array([leaf.real]), np.array([leaf.imag])
            leaf_viol = np.zeros(4, dtype=np.int64)
            _check_vec(*parts, abs_caps[i], im_floors[i], leaf_viol)
            viol[i] += leaf_viol * (samples * sizes[-1])
            free_levels[i] = (tuple(np.broadcast_to(part, (sizes[-1], 1)) for part in parts),
                              _sum_children(np.array([leaf]), q if depth > 1 else branches))
    for start in range(0, samples, per_block):
        block = slice(start, min(start + per_block, samples))
        layout = work.block(block.stop - start)
        if not chain:
            # a block draws every level once, in the row chunks of its updates
            for k, (_, updates) in layout.items():
                for u in updates:
                    draw_omega_vec(pot_kind, pot_a, keys[None, block], ids[k][u.rows], u.pot,
                                   (u.scratch["bits0"], u.scratch["bits1"]))
                    np.multiply(u.pot, eps, out=u.pot)
        for i, gamma in enumerate(gammas):
            cap, floor, counts = abs_caps[i], im_floors[i], viol[i]
            # whether the level under k was computed, or with free leaves, on
            # the level above them, the sum of copies of the leaf
            children, total = False, None
            for k in range(depth, -1, -1):
                if k == depth and i in free_levels:
                    level, total = free_levels[i]
                else:
                    level, updates = layout[k]
                    count = branches if k == 0 else q
                    ni = -gamma.imag if total is None else total.imag - gamma.imag
                    for u in updates:
                        s = u.scratch
                        zr = np.subtract(gamma.real, u.pot, out=s["zr"])
                        sq = None
                        if children:
                            sums = _sum_children(u.kids[0], count, s["sums"])
                            ni = _sum_children(u.kids[1], count, s["ni"])
                            ni -= gamma.imag
                            zr -= sums
                            sq = sums  # the real child sums are spent once zr is built
                        elif total is not None:
                            zr -= total.real
                        re, im = crecip_parts(zr, ni, u.re, u.im, s["den"], sq)
                        # den is read before the exact counts overwrite it (the
                        # callers check the roots)
                        if k:
                            _check_vec(re, im, cap, floor, counts, (s["den"], s["mask"]),
                                       s["den"], ni)
                    children, total = True, None
                if 0 < k <= spine_len:
                    values = spine[i, block, k - 1]
                    values.real, values.imag = level[0][ray], level[1][ray]
            values = root[i, block]
            values.real, values.imag = level[0][0], level[1][0]
    return root, spine, viol


# ----------------------------------------------------------------------
# message passing on the directed edges of a finite graph
# ----------------------------------------------------------------------


def messages_advance(rev, omega, eps, gamma, rounds, keep, abs_cap, im_floor):
    """``rounds`` cavity updates of every directed-edge message, from zero.

    Edge ids are slot-major (u -> its j-th neighbor is j*n + u for n
    vertices, so edge e leaves e % n) and ``rev[e]`` is the reverse edge of
    e, so e runs into rev[e] % n.  ``rev`` must pair every edge with another
    one (an involution without fixed points): an index out of range raises
    IndexError, any other ``rev`` ValueError, and so does a ``keep`` outside
    1..rounds.  The messages start at zero, so round 1 gives the bare site
    values 1/(gamma - eps*omega) and round r the cavity values with r - 1
    levels below their edge.  Returns (the messages of the last ``keep``
    rounds, an array of (keep, edges) in edge order with the last round
    last; the violation counters of every update).

    Inside, the messages are an array of (deg, 2, n) whose row j holds the
    real and the imaginary parts, at column v, of the message on edge
    j*n + v, so the messages out of v are column v of every row, and the
    array fills the output by reshapes.  A round is whole-row passes over
    contiguous memory: the vertex sums S_v (deg row adds in edge order,
    ``_sum_children``), S_v minus each message, the denominators' real part
    base_v - that and negated imaginary part that - eta, ``crecip_parts`` in
    place and ``_check_vec``.  The value computed at column v, row j is the
    new message on the reverse of edge j*n + v; one ``np.take`` by ``rev``
    plus the offset of the imaginary parts moves every value onto its edge
    for the next round.  Every message goes through the operations of
    ``crecip_vec(gamma - site_pot - (site_sum - reverse message))`` in that
    order, as in a per-edge round, and the counters add up the same checks.
    The gather runs in ``np.take``'s "wrap" mode, which writes straight into
    its output (the default "raise" mode buffers it); ``rev`` is checked
    once instead.  A target-major (vertices, deg) layout needs the same one
    gather, but every broadcast in it runs along an inner axis of length
    deg, and it timed slower than gathering per edge.
    """
    n, edges = omega.size, rev.size
    deg = edges // n
    if not 1 <= keep <= rounds:
        raise ValueError(f"keep = {keep} must lie in 1..rounds = {rounds}")
    if edges and not (0 <= rev.min() and rev.max() < edges):
        raise IndexError(f"reverse edge out of range for {edges} edges")
    ids = np.arange(edges)
    if np.any(rev[rev] != ids) or np.any(rev == ids):
        raise ValueError("reverse edges must pair every edge with another one")
    viol = np.zeros(4, dtype=np.int64)
    # part c of edge e takes part c of the value computed at edge rev[e]
    move = (rev.reshape(deg, 1, n) + np.array([[0], [edges]])).ravel()
    g = complex(gamma)
    # the real part of gamma - site_pot, per slot; its imaginary part is g.imag - 0.0 = g.imag
    base = g.real - eps * np.broadcast_to(omega, (deg, n))
    slots = np.zeros((deg, 2, n))
    slot_re, slot_im = slots[:, 0], slots[:, 1]
    out = np.empty((keep, edges), dtype=np.complex128)
    # a round builds the denominators' parts in new and turns them into its
    # values in place; new lives in the last output row, written once new is spent
    new = out[-1].view(np.float64).reshape(2, deg, n)
    zr, ni = new
    sums = np.empty((2, n))
    den, sq = np.empty((deg, n)), np.empty((deg, n))
    scratch = sq, np.empty((deg, n), dtype=bool)  # sq is free once den is built
    # round r (from 0) of the kept ones is out[r]: the rounds before them run at r < 0
    for r in range(keep - rounds, keep):
        _sum_children(slots, deg, sums)
        np.subtract(sums[0], slot_re, out=zr)
        np.subtract(base, zr, out=zr)
        np.subtract(sums[1], slot_im, out=ni)
        ni -= g.imag
        re, im = crecip_parts(zr, ni, zr, ni, den, sq)
        _check_vec(re, im, abs_cap, im_floor, viol, scratch, den)
        np.take(new, move, out=slots.reshape(-1), mode="wrap")
        if r >= 0:
            kept = out[r].reshape(deg, n)
            kept.real, kept.imag = slot_re, slot_im
    return out, viol
