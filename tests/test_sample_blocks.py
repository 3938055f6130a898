"""The blocked ray and cavity batches against a per-sample loop and per-gamma calls.

``ray_batch`` and ``cavity_batch`` sweep many samples at once, in blocks of
at most ``_kernels._BLOCK_NODES`` nodes on the widest tree level they
compute.  The oracle here is the per-sample loop they replaced: one
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
# the test ids); ragged blocks of 2-7 samples; one sample per block
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
    seen, shapes = [], []

    def recording(q, depth, branches, eps, gammas, leaves, pot_kind, pot_a, keys, *rest):
        seen.append(keys.shape[0])
        return sweep(q, depth, branches, eps, gammas, leaves, pot_kind, pot_a, keys, *rest)

    def recording_levels(*args):
        for k, values, den in levels(*args):
            shapes.append(values.shape)
            yield k, values, den

    monkeypatch.setattr(_kernels, "_sweep_block", recording)
    monkeypatch.setattr(_kernels, "cavity_levels", recording_levels)
    q, depth, samples = 3, 5, 29
    for leaf_mode in ("bare", "free"):
        leaves = [leaf_for(leaf_mode, q, g) for g in GRID]
        # the widest level a sweep computes per sample: the leaf level, or with
        # free leaves the level above it, since the leaf level is one shared row
        widest = depth - 1 if leaf_mode == "free" else depth
        batches = [
            (4 * 3 ** (widest - 1), lambda: _kernels.ray_batch(
                q, depth, EPS, GRID, leaves, _rng.POT_UNIFORM, 1.0, 5, samples, 2, 0,
                GRID_CAPS, GRID_FLOORS)),
            (3**widest, lambda: _kernels.cavity_batch(
                q, depth, EPS, GRID, leaves, _rng.POT_UNIFORM, 1.0, 7, samples,
                GRID_CAPS, GRID_FLOORS)),
        ]
        for width, run in batches:
            seen.clear()
            shapes.clear()
            run()
            assert sum(seen) == samples
            # every block but the last is as full as the limit allows
            assert seen[:-1] == [max(1, block_nodes // width)] * (len(seen) - 1)
            assert all(m * width <= block_nodes or m == 1 for m in seen)
            # and every level a block sweeps, a shared free-leaf row included,
            # holds at most that many nodes, or one row
            assert len(shapes) == len(seen) * len(GRID) * depth
            assert all(rows * cols <= block_nodes or rows == 1 for rows, cols in shapes)


@pytest.mark.parametrize("batch", ["ray", "cavity"])
def test_free_leaf_sweep_work_stays_within_block_nodes(batch, monkeypatch):
    # the moment table's ball (q=3, depth 8) and the reference profile's
    # (q=2, depth 12), with free leaves: the buffers hold no level wider
    # than the block, and no potentials for the leaf level, which draws none
    made = []

    class Recorded(_kernels.SweepWork):
        def __init__(self, rows, sizes, free_leaves=False):
            super().__init__(rows, sizes, free_leaves)
            made.append((self, rows, sizes))

    monkeypatch.setattr(_kernels, "SweepWork", Recorded)
    if batch == "ray":
        q, depth = 2, 12
        gamma = 0.5 + 0.2j
        leaf = tree_green.free_forward_green_complex(gamma, q)
        _kernels.ray_batch(q, depth, EPS, [gamma], [leaf], _rng.POT_UNIFORM, 1.0, 5, 12,
                           depth - 1, 0, [5.0], [0.0])
    else:
        q, depth = 3, 8
        gamma = 0.5 + 0.05j
        leaf = tree_green.free_forward_green_complex(gamma, q)
        _kernels.cavity_batch(q, depth, EPS, [gamma], [leaf], _rng.POT_UNIFORM, 1.0, 7, 16,
                              [20.0], [0.0])
    (work, rows, sizes), = made
    assert rows == _kernels._BLOCK_NODES // sizes[-2]
    assert all(buffer.size <= _kernels._BLOCK_NODES for buffer in work._buffers.values())
    assert work.sites.size == rows * sum(sizes[:-1])
