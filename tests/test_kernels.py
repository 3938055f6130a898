"""Bitwise golden outputs of the cavity and message-passing kernels.

The SHA-256 digests below were recorded from the kernels before they were
last restructured; any change to the arithmetic, the summation order or the
random streams moves them.  Digests cover ``.tobytes()`` of every output in
the order listed in each test.
"""

import hashlib

import numpy as np
import oracles
import pytest

from qelab import _kernels, _rng, anderson, graphs, tree_green

SPEC = anderson.PotentialSpec()

GOLDEN = {
    "cavity/0.25/bare": "500b07e83d9997c04dbbe362aa248270c844162609cbc357d8a6070511c0aab9",
    "cavity/0.25/free": "3778d8c03ac7b13fb320bde83c2928e6a9993c564b9c25bd9601e684b7b8f616",
    "messages/0.0": "39a39771628a7f999cb63f9c485f1e23056fb3dfa4d8eeb406760d588666d911",
    "messages/0.3": "97b372b28c4f7324a961e9c9dde325077c536e99adf48fd7324f21dc82a83bec",
    "ray/0.25/bare": "8b672948904f4eeebe46f3cd6a9fb23b58b864a0adbfd6fea06f28ec3fc126cf",
    "ray/0.25/free": "705de94fa1ae187072239cba37cc66779e1bb74431bae666a12eb2b7e15c1ee0",
    "sweep/2/6/0.0/bare": "4e2d3a16b08b9eae9f5c4545f4a21b6a7b16c80b030363d7cc2f2295ee23d92d",
    "sweep/2/6/0.0/free": "17c5daf35f5d2a64646c8e987e86a6016565156f74abf67493cef7d820b5cec8",
    "sweep/2/8/0.3/bare": "7437ecd78ac278f5f859594f00c4c562c1d07236fd366e11662550cc31026c7e",
    "sweep/2/8/0.3/free": "6d9da17c52d1b97aa099195a95c266db0ecb08b997e88b04050866f5317d5be0",
    "sweep/3/5/0.15/bare": "3aa313434b3e4e198071dcf8dbc3d682490ff23139e302e8c223f747825a5977",
    "sweep/3/5/0.15/free": "491e3b1d23216c1b50a930d0096ecb9c3e2e3a56368d5bed983c7eb392b06306",
    "tree/2/6/0.0/bare": "c0487d7278a56f762380cc590c49663ceb455f3e1aae44afb705b72936643e96",
    "tree/2/6/0.0/free": "fa22977d4d3e699d6c1a1cfe19552293d9c909b2a45f9f9c49ed1e2b75e0d7e2",
    "tree/2/8/0.3/bare": "76dda75f07cd0fd426f5c24e918f2e542623781c1fe420fc6f13ec0a8b47918d",
    "tree/2/8/0.3/free": "383348c52930c0ce7d9f2a2d35282a9f3b718e2e04c59d5b75c8c7ef1b4e9c6d",
    "tree/3/5/0.15/bare": "aa380052ea399413d912f08d686d3bb62b1b58d718942dec685615be775d714c",
    "tree/3/5/0.15/free": "d8daef19c4ce2152a8ef23950f8b4d4acf03532712548fc1837f38e66b428b27",
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def leaf_for(leaf_mode, gamma, q):
    return tree_green.free_forward_green_complex(gamma, q) if leaf_mode == "free" else None


def tree_sweep(q, eps, gamma, depth, seed, leaf_mode, spine_len):
    """One ball keyed by (seed, "tree-sweep"): the eps = 0 chain or the full sweep.

    Returns (branch values at the root, spine, root-site potential, violation
    counters), with cap 1/eta and the floor at |lam|.
    """
    key = _rng.derive_key(seed, "tree-sweep")
    abs_cap = 1.0 / gamma.imag
    floor = tree_green.imag_floor(q, eps, SPEC.support_bound, abs(gamma.real), gamma.imag)
    if eps == 0.0:
        values = oracles.zero_disorder_chain(q, depth, gamma, leaf_mode)
        viol = np.zeros(4, dtype=np.int64)
        _kernels._check_vec(values.real, values.imag, abs_cap, floor, viol)
        omega_root = oracles.draw_omega_scalar(SPEC.kind, SPEC.support_bound, key, 0)
        return np.full(q + 1, values[0]), values[:spine_len].copy(), omega_root, viol
    return oracles.cavity_sweep(
        q, depth, q + 1, eps, gamma, leaf_for(leaf_mode, gamma, q), SPEC.kind,
        SPEC.support_bound, key, spine_len, 0, abs_cap, floor,
    )


@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("q,depth,eps", [(2, 8, 0.3), (3, 5, 0.15), (2, 6, 0.0)])
def test_sweep_golden(q, depth, eps, leaf_mode):
    gamma = 0.4 + 0.2j
    tag = f"{q}/{depth}/{eps}/{leaf_mode}"
    # eps = 0 takes the chain shortcut here ...
    root_values, spine, omega_root, viol = tree_sweep(q, eps, gamma, depth, 13, leaf_mode, 3)
    assert digest(root_values, spine, np.float64(omega_root), viol) == GOLDEN[f"tree/{tag}"]
    # ... and the full ball here
    branch, spine, omega_root, viol = oracles.cavity_sweep(
        q, depth, q + 1, eps, gamma, leaf_for(leaf_mode, gamma, q),
        SPEC.kind, 1.0, 7, 3, 1, 5.0, 1e-8,
    )
    assert digest(branch, spine, np.float64(omega_root), viol) == GOLDEN[f"sweep/{tag}"]


@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("eps", [0.25])
def test_ray_and_cavity_batches_golden(eps, leaf_mode):
    # "ray": Im G(o, y_r), r = 0..2, of (q+1)-branch balls down a ray of branch
    # 1, as the distance profile takes them; "cavity": q-branch root values,
    # their own bound checks added to the counters, as the moment table takes them
    q, depth, samples = 2, 7, 64
    gamma = 0.2 + 0.3j
    leaf = leaf_for(leaf_mode, gamma, q)
    cap, floor = 1.0 / gamma.imag, 1e-9
    root, spine, viol = _kernels.tree_batch(
        q, depth, q + 1, eps, [gamma], [leaf], SPEC.kind, 1.0, 99, samples, 2, 1,
        [cap], [floor],
    )
    assert root.shape == (1, samples) and spine.shape == (1, samples, 2) and viol.shape == (1, 4)
    im = tree_green._ray_green_im(root, spine)
    assert digest(im[0], viol[0]) == GOLDEN[f"ray/{eps}/{leaf_mode}"]
    zeta, spine, viol = _kernels.tree_batch(
        q, depth, q, eps, [gamma], [leaf], SPEC.kind, 1.0, 101, samples, 0, 0,
        [cap], [floor],
    )
    assert spine.shape == (1, samples, 0)
    _kernels._check_vec(zeta[0].real, zeta[0].imag, cap, floor, viol[0])
    assert digest(zeta[0], viol[0]) == GOLDEN[f"cavity/{eps}/{leaf_mode}"]


@pytest.mark.parametrize("eps", [0.3, 0.0])
def test_message_passing_golden(eps):
    # the digests were recorded on the Philox-pairing graph
    g = oracles.random_regular_philox(40, 2, seed=8)
    pot = anderson.sample_potential(40, SPEC, eps, seed=2)
    gamma = 0.1 + 0.2j
    rev = g.reverse_edge_index()
    history, viol = _kernels.messages_advance(rev, pot.omega, pot.epsilon, gamma, 13, 13, 5.0, 0.0)
    # the first kept round is the one a one-round call returns
    first, _ = _kernels.messages_advance(rev, pot.omega, pot.epsilon, gamma, 1, 1, 5.0, 0.0)
    assert history.shape == (13, rev.size) and first.tobytes() == history[0].tobytes()
    # the digests were recorded with vertex-major edge ids, u*(q+1) + j
    msg0, msg = (h.reshape(g.q + 1, g.n).T for h in (history[0], history[-1]))
    assert digest(msg0, msg, viol) == GOLDEN[f"messages/{eps}"]


# the slot layout of the rounds depends on the degree; the q=2 ids carry no degree
_ROUND_CASES = [(cap, floor, q) for q in (2, 3, 4) for cap, floor in ((5.0, 0.0), (1.2, 0.3))]


@pytest.mark.parametrize("eps", [0.3, 0.0])
@pytest.mark.parametrize("cap, floor, q", _ROUND_CASES,
                         ids=[f"{c}-{f}" + (f"-q{q}" if q != 2 else "") for c, f, q in _ROUND_CASES])
def test_message_rounds_match_per_edge_loop(eps, cap, floor, q):
    # the tight cap and floor make the counters count, through the exact path
    g = graphs.generate_random_regular(40, q, seed=8)
    pot = anderson.sample_potential(40, SPEC, eps, seed=2)
    gamma = 0.1 + 0.2j
    nbrs, rev = g.directed_targets(), g.reverse_edge_index()
    msg0, viol0 = _kernels.messages_advance(rev, pot.omega, pot.epsilon, gamma, 1, 1, cap, floor)
    # one round from zero is the bare site value 1/(gamma - eps*omega), counted alike
    bare = _kernels.crecip_vec(gamma - pot.epsilon * pot.omega[nbrs])
    bare_viol = np.zeros(4, dtype=np.int64)
    _kernels._check_vec(bare.real, bare.imag, cap, floor, bare_viol)
    assert msg0.tobytes() == bare.tobytes()
    assert viol0.tolist() == bare_viol.tolist()
    if floor:
        assert viol0[:3].sum() > 0
    msg, viol = _kernels.messages_advance(rev, pot.omega, pot.epsilon, gamma, 13, 1, cap, floor)
    zero = np.zeros(nbrs.size, dtype=np.complex128)
    want, want_viol = oracles.message_rounds(
        nbrs, rev, pot.omega, pot.epsilon, gamma, zero, 13, cap, floor
    )
    assert msg[0].tobytes() == want.tobytes()
    assert viol.tolist() == want_viol.tolist()
    if floor:
        assert viol[:3].sum() > 0


@pytest.mark.parametrize("which, bad", [("rev", -1), ("rev", 120), ("shared", 8), ("fixed", 7)])
def test_message_indices_out_of_range_raise(which, bad):
    # a reverse edge out of range raises IndexError; one in range must still
    # pair every edge with another edge, or the call raises ValueError
    g = graphs.generate_random_regular(40, 2, seed=8)
    pot = anderson.sample_potential(40, SPEC, 0.3, seed=2)
    rev = g.reverse_edge_index().copy()
    if which == "rev":
        rev[7] = bad
    elif which == "shared":  # edges 7 and 8 claim the same reverse
        rev[7] = rev[bad]
    else:  # edge 7 and its reverse become their own reverses: still an involution
        rev[rev[bad]] = rev[bad]
        rev[bad] = bad
    with pytest.raises(IndexError if which == "rev" else ValueError):
        _kernels.messages_advance(rev, pot.omega, 0.3, 0.2j, 1, 1, 5.0, 0.0)


@pytest.mark.parametrize("rounds, keep", [(3, 0), (3, -1), (3, 4), (0, 0), (0, 1)])
def test_message_keep_outside_rounds_raises(rounds, keep):
    g = graphs.generate_random_regular(40, 2, seed=8)
    pot = anderson.sample_potential(40, SPEC, 0.3, seed=2)
    with pytest.raises(ValueError, match="keep"):
        _kernels.messages_advance(g.reverse_edge_index(), pot.omega, 0.3, 0.2j, rounds, keep,
                                  5.0, 0.0)


@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("extra_branch", [0, 1])
@pytest.mark.parametrize("q", [2, 3])
def test_zero_disorder_batch_matches_full_ball(q, extra_branch, leaf_mode):
    # at eps = 0 tree_batch sweeps one chain, one node per level, and matches
    # every node of the full ball swept node by node: the spine bit for bit,
    # the root from the branch values, the counters once per level there and
    # once per node here (the floor makes some levels count)
    depth, branches, gamma = 6, q + extra_branch, 0.3 + 0.15j
    leaf = leaf_for(leaf_mode, gamma, q)
    cap, floor, key = 1.0 / gamma.imag, 0.67, _rng.derive_key(3, "tree-sweep")
    root, spine, viol = _kernels.tree_batch(
        q, depth, branches, 0.0, [gamma], [leaf], SPEC.kind, 1.0, key, 64, depth, 1,
        [cap], [floor],
    )
    assert root.shape == (1, 1) and spine.shape == (1, 1, depth)
    branch, want_spine, _, want_viol = oracles.cavity_sweep(
        q, depth, branches, 0.0, gamma, leaf, SPEC.kind, 1.0, key, depth, 1, cap, floor,
    )
    assert spine[0, 0].tobytes() == want_spine.tobytes()
    s = 0j
    for z in branch:
        s += z
    assert root[0, 0] == oracles.crecip_scalar(gamma - s)
    per_level = np.zeros((depth, 4), dtype=np.int64)
    for k in range(depth):
        level = spine[0, 0, k : k + 1]
        _kernels._check_vec(level.real, level.imag, cap, floor, per_level[k])
    assert per_level[:, 2].any()
    assert viol[0].tolist() == per_level.sum(axis=0).tolist()
    widths = np.array(_kernels.level_sizes(q, depth, branches))
    assert want_viol.tolist() == (widths @ per_level).tolist()


def test_segment_sums_matches_sequential():
    # per-vertex sums of edge-order messages: slot-major ids j*n + v make the
    # (deg, vertices) reshape put each vertex's children on the first axis,
    # as lifted_green takes them
    rng = np.random.default_rng(1)
    for n, deg in [(10, 3), (4, 7), (6, 1)]:
        vals = rng.normal(size=n * deg) + 1j * rng.normal(size=n * deg)
        out = _kernels._sum_children(vals.reshape(deg, n), deg)
        for v in range(n):
            s = 0.0 + 0.0j
            for e in range(v, n * deg, n):
                s += vals[e]
            assert out[v] == s
