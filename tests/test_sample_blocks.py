"""The blocked ray and cavity batches against a per-sample loop and per-gamma calls.

``ray_batch`` and ``cavity_batch`` sweep many samples at once, in blocks of
at most ``_kernels._BLOCK_NODES`` nodes on the widest tree level they
compute, and update each level in chunks of sample rows of at most a
quarter of that.  The oracle here is the per-sample loop they replaced: one
``oracles.cavity_sweep`` per sample key, the root sum in CPython scalars,
``crecip_scalar`` and the complex ``*``.
Outputs and violation counters must match bit for bit, however the samples
fall into blocks.  A grid of gammas swept over one draw of the potentials
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
KINDS = [_rng.POT_UNIFORM, _rng.POT_RESCALED_BETA, _rng.POT_TWO_POINT]
# (samples, _BLOCK_NODES): one sample (any block size holds it; 2**16 keeps
# the test ids); ragged blocks of 2-7 samples whose wider levels cross
# chunks of 175 nodes; one sample per block
LAYOUTS = [(1, 2**16), (37, 700), (5, 1)]
# a grid of mixed lambda and eta, each gamma with its own cap and floor
GRID = [GAMMA, -0.6 + 0.1j, 1.1 + 0.4j, 0.3 + 0.05j]
GRID_CAPS = [ABS_CAP, 2.0, 1.0, 1.5]
GRID_FLOORS = [IM_FLOOR, 0.05, 0.3, 0.02]


def leaf_for(leaf_mode, q, gamma=GAMMA):
    return tree_green.free_forward_green_complex(gamma, q) if leaf_mode == "free" else None


def ray_oracle(q, depth, leaf, kind, batch_key, samples, r_max, ray_branch):
    keys = _rng.hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    im = np.empty((samples, r_max + 1), dtype=np.float64)
    viol = np.zeros(4, dtype=np.int64)
    for m in range(samples):
        branch, spine, omega_root, counts = oracles.cavity_sweep(
            q, depth, q + 1, EPS, GAMMA, leaf, kind, 1.0, int(keys[m]),
            r_max, ray_branch, ABS_CAP, IM_FLOOR,
        )
        viol += counts
        s = 0.0j
        for z in branch:
            s += z
        g = _kernels.crecip_scalar(EPS * omega_root - GAMMA + s)
        im[m, 0] = g.imag
        for r in range(1, r_max + 1):
            g = g * spine[r - 1]
            im[m, r] = g.imag
    return im, viol


def cavity_oracle(q, depth, leaf, kind, batch_key, samples):
    keys = _rng.hash_u64_vec(batch_key, np.arange(samples, dtype=np.uint64))
    zeta = np.empty(samples, dtype=np.complex128)
    viol = np.zeros(4, dtype=np.int64)
    for m in range(samples):
        branch, _, omega_root, counts = oracles.cavity_sweep(
            q, depth, q, EPS, GAMMA, leaf, kind, 1.0, int(keys[m]), 0, 0, ABS_CAP, IM_FLOOR,
        )
        viol += counts
        s = 0.0j
        for z in branch:
            s += z
        zeta[m] = _kernels.crecip_scalar(GAMMA - EPS * omega_root - s)
    _kernels._check_vec(zeta, ABS_CAP, IM_FLOOR, viol)
    return zeta, viol


@pytest.mark.parametrize("samples,block_nodes", LAYOUTS)
@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_batches_match_per_sample_loop(kind, q, leaf_mode, samples, block_nodes, monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK_NODES", block_nodes)
    depth, leaf = DEPTH[q], leaf_for(leaf_mode, q)
    r_max = depth - 1
    for ray_branch in (0, q):
        im, viol = _kernels.ray_batch(
            q, depth, EPS, [GAMMA], [leaf], kind, 1.0, 41, samples,
            r_max, ray_branch, [ABS_CAP], [IM_FLOOR],
        )
        want_im, want_viol = ray_oracle(q, depth, leaf, kind, 41, samples, r_max, ray_branch)
        assert np.array_equal(im, want_im[None])
        assert np.array_equal(viol, want_viol[None])
        assert leaf_mode == "free" or (viol[0, 1] > 0 and viol[0, 2] > 0)
    zeta, viol = _kernels.cavity_batch(
        q, depth, EPS, [GAMMA], [leaf], kind, 1.0, 43, samples, [ABS_CAP], [IM_FLOOR],
    )
    want_zeta, want_viol = cavity_oracle(q, depth, leaf, kind, 43, samples)
    assert np.array_equal(zeta, want_zeta[None])
    assert np.array_equal(viol, want_viol[None])


@pytest.mark.parametrize("samples,block_nodes", LAYOUTS)
@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_gamma_grid_matches_single_gamma_calls(kind, q, leaf_mode, samples, block_nodes,
                                               monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK_NODES", block_nodes)
    depth = DEPTH[q]
    leaves = [leaf_for(leaf_mode, q, g) for g in GRID]
    im, viol = _kernels.ray_batch(q, depth, EPS, GRID, leaves, kind, 1.0, 41, samples,
                                  depth - 1, 1, GRID_CAPS, GRID_FLOORS)
    zeta, zviol = _kernels.cavity_batch(q, depth, EPS, GRID, leaves, kind, 1.0, 43, samples,
                                        GRID_CAPS, GRID_FLOORS)
    assert im.shape == (len(GRID), samples, depth) and zeta.shape == (len(GRID), samples)
    for i, gamma in enumerate(GRID):
        args = ([gamma], [leaves[i]], kind, 1.0)
        bounds = ([GRID_CAPS[i]], [GRID_FLOORS[i]])
        one_im, one_viol = _kernels.ray_batch(q, depth, EPS, *args, 41, samples,
                                              depth - 1, 1, *bounds)
        assert np.array_equal(im[i], one_im[0])
        assert np.array_equal(viol[i], one_viol[0])
        one_zeta, one_zviol = _kernels.cavity_batch(q, depth, EPS, *args, 43, samples, *bounds)
        assert np.array_equal(zeta[i], one_zeta[0])
        assert np.array_equal(zviol[i], one_zviol[0])
    # bare-leaf counters differ between gammas, so a mix-up of caps or floors shows
    assert leaf_mode == "free" or len({tuple(v) for v in viol}) == len(GRID)


@pytest.mark.parametrize("block_nodes", [1, 100, 700, 4096])
def test_blocks_hold_at_most_block_nodes_per_level(block_nodes, monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK_NODES", block_nodes)
    sweep, levels = _kernels._sweep_block, _kernels.cavity_levels
    seen, updates = [], []

    def recording(q, depth, branches, eps, gammas, leaves, pot_kind, pot_a, keys, *rest):
        seen.append(keys.shape[0])
        return sweep(q, depth, branches, eps, gammas, leaves, pot_kind, pot_a, keys, *rest)

    def recording_levels(*args):
        for k, rows, values, den, ni in levels(*args):
            updates.append((k, rows, values.shape, den is None))
            yield k, rows, values, den, ni

    monkeypatch.setattr(_kernels, "_sweep_block", recording)
    monkeypatch.setattr(_kernels, "cavity_levels", recording_levels)
    q, depth = 3, 5
    chunk = block_nodes // 4
    for leaf_mode in ("bare", "free"):
        leaves = [leaf_for(leaf_mode, q, g) for g in GRID]
        for samples in (29, 1):
            batches = [
                (_kernels.level_sizes(q, depth, q + 1), lambda: _kernels.ray_batch(
                    q, depth, EPS, GRID, leaves, _rng.POT_UNIFORM, 1.0, 5, samples, 2, 0,
                    GRID_CAPS, GRID_FLOORS)),
                (_kernels.level_sizes(q, depth, q), lambda: _kernels.cavity_batch(
                    q, depth, EPS, GRID, leaves, _rng.POT_UNIFORM, 1.0, 7, samples,
                    GRID_CAPS, GRID_FLOORS)),
            ]
            for sizes, run in batches:
                # the widest level a sweep computes per sample: the leaf level, or
                # with free leaves the level above it, as the leaf level is one value
                width = sizes[-2] if leaf_mode == "free" else sizes[-1]
                seen.clear()
                updates.clear()
                run()
                assert sum(seen) == samples
                # every block but the last is as full as the limit allows
                per_block = max(1, block_nodes // width)
                assert seen[:-1] == [per_block] * (len(seen) - 1) and seen[-1] <= per_block
                # every level update touches at most one chunk of nodes, or one
                # row, and the updates of a level cover its block's rows in order
                at = iter(updates)
                for m in seen:
                    for _ in GRID:
                        for k in range(depth, 0, -1):
                            if leaf_mode == "free" and k == depth:
                                assert next(at)[1:] == (slice(None), (1, sizes[-1]), True)
                                continue
                            stop = 0
                            while stop < m:
                                level, rows, (n, cols), shared = next(at)
                                assert (level, cols, shared) == (k, sizes[k - 1], False)
                                assert rows == slice(stop, stop + n) and n * cols <= max(chunk, cols)
                                assert n == min(max(1, chunk // cols), m - stop)
                                stop += n
                            assert stop == m
                assert next(at, None) is None


@pytest.mark.parametrize("batch", ["ray", "cavity", "tiny"])
def test_free_leaf_sweep_work_stays_within_block_nodes(batch, monkeypatch):
    # the reference profile's ball (q=2, depth 12), the moment table's (q=3,
    # depth 8) and a tiny profile (q=3, depth 4, 32 samples), with free
    # leaves: the level arrays and the potentials span the block's rows of
    # the computed levels only, every other buffer one chunk (or one row) and
    # never more than the block's widest level, and the free-leaf level is a
    # read-only view of one value that shares no buffer
    made, leaf_levels = [], []
    levels = _kernels.cavity_levels

    class Recorded(_kernels.SweepWork):
        def __init__(self, rows, sizes, free_leaves=False):
            super().__init__(rows, sizes, free_leaves)
            made.append((self, rows, sizes))

    def recording_levels(*args):
        for k, rows, values, den, ni in levels(*args):
            if den is None:
                leaf_levels.append(values)
            yield k, rows, values, den, ni

    monkeypatch.setattr(_kernels, "SweepWork", Recorded)
    monkeypatch.setattr(_kernels, "cavity_levels", recording_levels)
    q, depth, samples = {"ray": (2, 12, 30), "cavity": (3, 8, 40), "tiny": (3, 4, 32)}[batch]
    gamma = 0.5 + 0.05j
    leaf = tree_green.free_forward_green_complex(gamma, q)
    if batch == "cavity":
        _kernels.cavity_batch(q, depth, EPS, [gamma], [leaf], _rng.POT_UNIFORM, 1.0, 7, samples,
                              [20.0], [0.0])
    else:
        _kernels.ray_batch(q, depth, EPS, [gamma], [leaf], _rng.POT_UNIFORM, 1.0, 5, samples,
                           depth - 1, 0, [20.0], [0.0])
    (work, rows, sizes), = made
    widest = sizes[-2]
    assert rows == min(samples, _kernels._BLOCK_NODES // widest)
    assert batch == "tiny" or rows < samples
    # the two level arrays alternate: one holds the widest computed level of
    # the block, the other the level above it
    assert sorted(level.size for level in work.levels) == [rows * widest // q, rows * widest]
    assert work.sites.size == rows * sum(sizes[:-1])
    chunk = max(_kernels._BLOCK_NODES // 4, widest)
    for buffer in work.scratch.values():
        assert buffer.size <= min(chunk, rows * widest)
    assert leaf_levels and all(
        values.shape == (1, sizes[-1]) and not values.flags.writeable
        and not any(np.shares_memory(values, b) for b in [*work.levels, *work.scratch.values()])
        for values in leaf_levels
    )
