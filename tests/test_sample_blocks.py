"""``tree_batch`` against a per-sample loop and per-gamma calls.

``_kernels.tree_batch``, the one entry point of the tree sweeps, sweeps
many samples at once, in blocks of at most ``_kernels._BLOCK_NODES`` nodes
on the widest tree level it computes (the memory budget), and updates each
level in chunks of rows (tree positions, each holding the block's samples)
of at most ``_kernels._CHUNK_NODES`` nodes (the cache budget).  The tests
set the two budgets apart, a block spanning one chunk or many.  The oracle
here is a per-sample loop that shares no code with it: one
``oracles.cavity_sweep`` per sample key (a node-by-node CPython sweep with
its own bound comparisons), the root sum in CPython scalars,
``oracles.crecip_scalar`` and, down the ray of the distance profile, the
complex ``*``.  Roots, spines, profile values and violation counters must
match bit for bit, however the samples fall into blocks and the rows into
chunks, with q + 1 branches (the distance profile's balls) and with q (the
moment table's).  A grid of gammas swept over one draw of the potentials
must give, gamma by gamma, the bits of a one-gamma call with the same key.
"""

import numpy as np
import oracles
import pytest

from qelab import _kernels, _rng, tree_green

GAMMA = 0.3 + 0.25j
EPS = 0.35
# tight enough that the cap and floor counters of bare-leaf balls are nonzero
ABS_CAP = 1.2
IM_FLOOR = 0.25
DEPTH = {2: 6, 3: 5, 4: 4}
KINDS = ["uniform", "rescaled-beta", "two-point"]
# a test id names each kind by its position in KINDS
KIND_IDS = ["0", "1", "2"]
# (samples, _BLOCK_NODES, _CHUNK_NODES): one sample (any block size holds
# it); ragged blocks of 2-7 samples whose wider levels cross chunks of 175
# nodes; one sample per block, as every computed level is wider than the
# 16-node budget (test_one_sample_layout_holds_one_sample_per_block), in
# chunks of 4 rows; blocks of 3-31 samples, each spanning 13-17 chunks of
# 64 nodes, whose last block is ragged on every ball
# (test_many_chunk_layout_has_a_ragged_last_block).  A zero chunk budget is
# test_blocks_hold_at_most_block_nodes_per_level[1]'s.  The first two ids
# read samples-block budget, 5-1 reads 5 samples, 1 a block, and 67-1000-64
# samples-block budget-chunk budget.
ONE_A_BLOCK = pytest.param(5, 16, 4, id="5-1")
MANY_CHUNKS = pytest.param(67, 1000, 64, id="67-1000-64")
LAYOUTS = [pytest.param(1, 2**16, 2**14, id="1-65536"), pytest.param(37, 700, 175, id="37-700"),
           ONE_A_BLOCK, MANY_CHUNKS]
# a grid of mixed lambda and eta, each gamma with its own cap and floor
GRID = [GAMMA, -0.6 + 0.1j, 1.1 + 0.4j, 0.3 + 0.05j]
GRID_CAPS = [ABS_CAP, 2.0, 1.0, 1.5]
GRID_FLOORS = [IM_FLOOR, 0.05, 0.3, 0.02]


def leaf_for(leaf_mode, q, gamma=GAMMA):
    return tree_green.free_forward_green_complex(gamma, q) if leaf_mode == "free" else None


def sweep_oracle(q, depth, branches, leaf, kind, batch_key, samples, spine_len, ray_branch):
    """(roots, spines, Im G(o, y_r) for r = 0..spine_len, counters), one sample at a time."""
    keys = _rng.hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    root = np.empty(samples, dtype=np.complex128)
    spines = np.empty((samples, spine_len), dtype=np.complex128)
    im = np.empty((samples, spine_len + 1), dtype=np.float64)
    viol = np.zeros(4, dtype=np.int64)
    for m in range(samples):
        branch, spines[m], omega_root, counts = oracles.cavity_sweep(
            q, depth, branches, EPS, GAMMA, leaf, kind, 1.0, int(keys[m]),
            spine_len, ray_branch, ABS_CAP, IM_FLOOR,
        )
        viol += counts
        s = 0.0j
        for z in branch:
            s += z
        root[m] = oracles.crecip_scalar(GAMMA - EPS * omega_root - s)
        g = -complex(root[m])
        im[m, 0] = g.imag
        for r in range(spine_len):
            g = g * complex(spines[m, r])
            im[m, r + 1] = g.imag
    return root, spines, im, viol


def set_budgets(monkeypatch, block_nodes, chunk_nodes):
    monkeypatch.setattr(_kernels, "_BLOCK_NODES", block_nodes)
    monkeypatch.setattr(_kernels, "_CHUNK_NODES", chunk_nodes)


@pytest.mark.parametrize("samples,block_nodes,chunk_nodes", LAYOUTS)
@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_batches_match_per_sample_loop(kind, q, leaf_mode, samples, block_nodes, chunk_nodes,
                                       monkeypatch):
    set_budgets(monkeypatch, block_nodes, chunk_nodes)
    depth, leaf = DEPTH[q], leaf_for(leaf_mode, q)
    # the distance profile's balls down two rays, and the moment table's;
    # then depth 1 and 2 balls of both branch counts whose spine reaches the
    # leaf level (at depth 1 the root is the level above the leaves)
    balls = [(depth, q + 1, depth - 1, 0, 41), (depth, q + 1, depth - 1, q, 41),
             (depth, q, 0, 0, 43)]
    shallow = [(d, b, d, b - 1, 45) for d in (1, 2) for b in (q + 1, q)]
    for ball_depth, branches, spine_len, ray_branch, key in balls + shallow:
        root, spine, viol = _kernels.tree_batch(
            q, ball_depth, branches, EPS, [GAMMA], [leaf], kind, 1.0, key, samples,
            spine_len, ray_branch, [ABS_CAP], [IM_FLOOR],
        )
        want = sweep_oracle(q, ball_depth, branches, leaf, kind, key, samples, spine_len,
                            ray_branch)
        assert np.array_equal(root, want[0][None])
        assert np.array_equal(spine, want[1][None])
        assert np.array_equal(tree_green._ray_green_im(root, spine), want[2][None])
        assert np.array_equal(viol, want[3][None])
        assert ball_depth < depth or leaf_mode == "free" or (viol[0, 1] > 0 and viol[0, 2] > 0)


@pytest.mark.parametrize("samples,block_nodes,chunk_nodes", LAYOUTS)
@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_gamma_grid_matches_single_gamma_calls(kind, q, leaf_mode, samples, block_nodes,
                                               chunk_nodes, monkeypatch):
    set_budgets(monkeypatch, block_nodes, chunk_nodes)
    depth = DEPTH[q]
    leaves = [leaf_for(leaf_mode, q, g) for g in GRID]
    for branches, spine_len, key in [(q + 1, depth - 1, 41), (q, 0, 43)]:
        root, spine, viol = _kernels.tree_batch(
            q, depth, branches, EPS, GRID, leaves, kind, 1.0, key, samples, spine_len, 1,
            GRID_CAPS, GRID_FLOORS,
        )
        assert root.shape == (len(GRID), samples)
        assert spine.shape == (len(GRID), samples, spine_len)
        for i, gamma in enumerate(GRID):
            one = _kernels.tree_batch(
                q, depth, branches, EPS, [gamma], [leaves[i]], kind, 1.0, key, samples,
                spine_len, 1, [GRID_CAPS[i]], [GRID_FLOORS[i]],
            )
            for got, want in zip((root, spine, viol), one):
                assert np.array_equal(got[i], want[0])
        # bare-leaf counters differ between gammas, so a mix-up of caps or floors shows
        assert leaf_mode == "free" or len({tuple(v) for v in viol}) == len(GRID)


def test_one_sample_layout_holds_one_sample_per_block(monkeypatch):
    # the widest computed level of every ball above is at least 32 nodes (the
    # narrowest: q = 2 with q branches and free leaves), so the 5-1 layout's
    # 16-node block budget holds one sample a block, and its 4-node chunk
    # budget updates 4 rows a chunk
    samples, block_nodes, chunk_nodes = ONE_A_BLOCK.values
    set_budgets(monkeypatch, block_nodes, chunk_nodes)
    made = []

    class Recorded(_kernels.SweepWork):
        def __init__(self, rows, sizes, free_leaves=False):
            super().__init__(rows, sizes, free_leaves)
            made.append(rows)

    monkeypatch.setattr(_kernels, "SweepWork", Recorded)
    for q, depth in DEPTH.items():
        for branches in (q + 1, q):
            widest = _kernels.level_sizes(q, depth, branches)[-2]
            assert widest >= 32 and _kernels._row_chunks(widest, 1)[0] == slice(0, 4)
            for leaf_mode in ("bare", "free"):
                _kernels.tree_batch(q, depth, branches, EPS, [GAMMA], [leaf_for(leaf_mode, q)],
                                    "uniform", 1.0, 41, samples, 0, 0, [ABS_CAP], [IM_FLOOR])
    assert made == [1] * (len(DEPTH) * 2 * 2)


def recorded_blocks(monkeypatch):
    """Patch ``draw_omega_vec`` to record the samples of each block, which
    draws the root's potential (level 0, node id 0) once, for all its
    samples, as a one-row grid of ids: returns the list."""
    draw, seen = _kernels.draw_omega_vec, []

    def recording(kind, a, keys, ids, *rest):
        if ids.shape == (1, 1) and ids[0, 0] == 0:
            seen.append(keys.shape[1])
        return draw(kind, a, keys, ids, *rest)

    monkeypatch.setattr(_kernels, "draw_omega_vec", recording)
    return seen


def test_many_chunk_layout_has_a_ragged_last_block(monkeypatch):
    # on every ball of the per-sample comparisons, the 67-1000-64 layout
    # sweeps several blocks, the last one short, and splits the widest
    # computed level of a full block into at least a dozen chunks of rows
    samples, block_nodes, chunk_nodes = MANY_CHUNKS.values
    set_budgets(monkeypatch, block_nodes, chunk_nodes)
    seen = recorded_blocks(monkeypatch)
    for q, depth in DEPTH.items():
        for branches in (q + 1, q):
            sizes = _kernels.level_sizes(q, depth, branches)
            for leaf_mode, widest in (("bare", sizes[-1]), ("free", sizes[-2])):
                seen.clear()
                _kernels.tree_batch(q, depth, branches, EPS, [GAMMA], [leaf_for(leaf_mode, q)],
                                    "uniform", 1.0, 41, samples, 0, 0, [ABS_CAP], [IM_FLOOR])
                per_block = block_nodes // widest
                assert len(seen) >= 3 and 0 < seen[-1] < per_block
                assert seen[:-1] == [per_block] * (len(seen) - 1) and sum(seen) == samples
                assert len(_kernels._row_chunks(widest, per_block)) >= 12


def row_of(part, buffer, length):
    """The row of a level array of rows of ``length`` cells in ``buffer`` at
    which the chunk ``part`` starts."""
    assert np.shares_memory(part, buffer)
    return (part.ctypes.data - buffer.ctypes.data) // (buffer.itemsize * length)


# (_BLOCK_NODES, _CHUNK_NODES), each id its block budget: a zero chunk budget
# (one row a chunk), blocks of four chunks, blocks spanning a dozen chunks
# and a chunk budget above the block's (one chunk a level)
BUDGETS = [pytest.param(1, 0, id="1"), pytest.param(100, 25, id="100"),
           pytest.param(700, 60, id="700"), pytest.param(4096, 2**14, id="4096")]


@pytest.mark.parametrize("block_nodes,chunk_nodes", BUDGETS)
def test_blocks_hold_at_most_block_nodes_per_level(block_nodes, chunk_nodes, monkeypatch):
    defaults = _kernels._BLOCK_NODES, _kernels._CHUNK_NODES
    set_budgets(monkeypatch, block_nodes, chunk_nodes)
    check = _kernels._check_vec
    updates, made = [], []

    class Recorded(_kernels.SweepWork):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def recording_check(re, im, abs_cap, im_floor, viol, scratch=None, den=None, ni=None):
        # one call per chunk update, with the chunk's parts, and one per free leaf
        updates.append((re, im, den is None))
        return check(re, im, abs_cap, im_floor, viol, scratch, den, ni)

    seen = recorded_blocks(monkeypatch)
    monkeypatch.setattr(_kernels, "_check_vec", recording_check)
    monkeypatch.setattr(_kernels, "SweepWork", Recorded)
    q, depth = 3, 5
    for leaf_mode in ("bare", "free"):
        leaves = [leaf_for(leaf_mode, q, g) for g in GRID]
        for samples in (29, 1):
            for branches, spine_len in [(q + 1, 2), (q, 0)]:
                sizes = _kernels.level_sizes(q, depth, branches)
                # the widest level a sweep computes per sample: the leaf level, or
                # with free leaves the level above it, as the leaf level is one value
                width = sizes[-2] if leaf_mode == "free" else sizes[-1]
                seen.clear()
                updates.clear()
                made.clear()
                args = (q, depth, branches, EPS, GRID, leaves, "uniform", 1.0, 5, samples,
                        spine_len, 0, GRID_CAPS, GRID_FLOORS)
                got = _kernels.tree_batch(*args)
                assert sum(seen) == samples
                # every block but the last is as full as the block budget allows
                per_block = max(1, block_nodes // width)
                assert seen[:-1] == [per_block] * (len(seen) - 1) and seen[-1] <= per_block
                # a level of a block of m samples is (width, m) arrays, a row per
                # tree position: every level update touches at most one chunk of
                # nodes, or one row, and the updates of a level cover its rows in
                # order, in the level arrays of the level's parity; each free
                # leaf is checked once for the whole call, before the first block
                (work,) = made
                at = iter(updates)
                if leaf_mode == "free":
                    for _ in GRID:
                        re, im, shared = next(at)
                        assert re.shape == im.shape == (1,) and shared
                for m in seen:
                    for _ in GRID:
                        for k in range(depth - (leaf_mode == "free"), 0, -1):
                            stop = 0
                            while stop < sizes[k - 1]:
                                re, im, shared = next(at)
                                (n, cols), parts = re.shape, work.levels[k % 2]
                                assert im.shape == re.shape and cols == m and not shared
                                assert row_of(re, parts[0], m) == row_of(im, parts[1], m) == stop
                                assert n * cols <= max(chunk_nodes, cols)
                                assert n == min(max(1, chunk_nodes // cols), sizes[k - 1] - stop)
                                stop += n
                            assert stop == sizes[k - 1]
                assert next(at, None) is None
                # the views of a block's updates are made once per block shape
                assert sorted(work._blocks) == sorted(set(seen))
                if block_nodes == 1:
                    # a zero chunk budget updates one row a chunk: roots, spines
                    # and counters are those of the default budgets
                    set_budgets(monkeypatch, *defaults)
                    want = _kernels.tree_batch(*args)
                    set_budgets(monkeypatch, block_nodes, chunk_nodes)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w)


@pytest.mark.parametrize("batch", ["ray", "cavity", "tiny"])
def test_free_leaf_sweep_work_stays_within_block_nodes(batch, monkeypatch):
    # the reference profile's ball (q=2, depth 12), the moment table's (q=3,
    # depth 8) and a tiny profile (q=3, depth 4, 32 samples), with free
    # leaves: the level arrays and the potentials span the block's samples
    # on the computed levels only, every other buffer one chunk (or one row
    # of a level array, the block's samples at one position) and never more
    # than the block's widest level, and each gamma's free-leaf level is one
    # value, checked once for the whole call, that shares no buffer
    made, leaf_checks = [], []
    check = _kernels._check_vec

    class Recorded(_kernels.SweepWork):
        def __init__(self, samples, sizes, free_leaves=False):
            super().__init__(samples, sizes, free_leaves)
            made.append((self, samples, sizes))

    def recording_check(re, im, abs_cap, im_floor, viol, scratch=None, den=None, ni=None):
        if den is None:
            leaf_checks.append((re, im))
        return check(re, im, abs_cap, im_floor, viol, scratch, den, ni)

    monkeypatch.setattr(_kernels, "SweepWork", Recorded)
    monkeypatch.setattr(_kernels, "_check_vec", recording_check)
    q, depth, samples = {"ray": (2, 12, 60), "cavity": (3, 8, 80), "tiny": (3, 4, 32)}[batch]
    branches, spine_len = (q, 0) if batch == "cavity" else (q + 1, depth - 1)
    gammas = [0.5 + 0.05j, -0.5 + 0.2j]
    leaves = [tree_green.free_forward_green_complex(gamma, q) for gamma in gammas]
    _kernels.tree_batch(q, depth, branches, EPS, gammas, leaves, "uniform", 1.0, 7,
                        samples, spine_len, 0, [20.0, 20.0], [0.0, 0.0])
    (work, rows, sizes), = made
    widest = sizes[-2]
    assert rows == min(samples, _kernels._BLOCK_NODES // widest)
    assert batch == "tiny" or rows < samples
    # the two levels alternate, each a real and an imaginary array: one holds
    # the widest computed level of the block, the other the level above it
    assert all(re.size == im.size for re, im in work.levels)
    assert sorted(re.size for re, _ in work.levels) == [rows * widest // q, rows * widest]
    assert work.sites.size == rows * sum(sizes[:-1])
    chunk = max(_kernels._CHUNK_NODES, rows)
    assert batch == "tiny" or chunk < rows * widest
    for buffer in work.scratch.values():
        assert buffer.size <= min(chunk, rows * widest)
    buffers = [*(part for level in work.levels for part in level), work.sites,
               *work.scratch.values()]
    assert len(leaf_checks) == len(gammas) and all(
        re.shape == im.shape == (1,) and (re[0], im[0]) == (leaf.real, leaf.imag)
        and not any(np.shares_memory(part, b) for part in (re, im) for b in buffers)
        for (re, im), leaf in zip(leaf_checks, leaves)
    )


def test_every_reciprocal_of_a_sweep_writes_into_its_scratch(monkeypatch):
    # the root is level 0 of the sweep: every crecip_parts call, the root's
    # included, leaves its squared moduli in the sweep's own den scratch
    # instead of allocating them, at every depth, branch count and leaf kind,
    # and on the eps = 0 chain
    reciprocal, made, dens = _kernels.crecip_parts, [], []

    class Recorded(_kernels.SweepWork):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def recording(zr, ni, re=None, im=None, den=None, sq=None):
        dens.append(den)
        return reciprocal(zr, ni, re, im, den, sq)

    monkeypatch.setattr(_kernels, "SweepWork", Recorded)
    monkeypatch.setattr(_kernels, "crecip_parts", recording)
    q = 3
    for depth in (1, 2, 4):
        for branches in (q + 1, q):
            for eps in (EPS, 0.0):
                for leaf_mode in ("bare", "free"):
                    made.clear()
                    dens.clear()
                    _kernels.tree_batch(q, depth, branches, eps, GRID,
                                        [leaf_for(leaf_mode, q, g) for g in GRID], "uniform",
                                        1.0, 5, 9, depth, 0, GRID_CAPS, GRID_FLOORS)
                    (work,) = made
                    computed = depth + (leaf_mode == "bare")
                    assert len(dens) >= len(GRID) * computed
                    assert all(den is not None and np.shares_memory(den, work.scratch["den"])
                               for den in dens)
