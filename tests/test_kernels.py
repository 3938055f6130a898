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
    "cavity/0.0/bare": "b390c2efba9c6fc893e439211a8daf429d6976653aec1e27ea2e55580b76f055",
    "cavity/0.0/free": "1bac8f68ccf80e7617ec21af7aa41c7ae1128e4c40ecff8a4778864905b63739",
    "cavity/0.25/bare": "500b07e83d9997c04dbbe362aa248270c844162609cbc357d8a6070511c0aab9",
    "cavity/0.25/free": "3778d8c03ac7b13fb320bde83c2928e6a9993c564b9c25bd9601e684b7b8f616",
    "messages/0.0": "39a39771628a7f999cb63f9c485f1e23056fb3dfa4d8eeb406760d588666d911",
    "messages/0.3": "97b372b28c4f7324a961e9c9dde325077c536e99adf48fd7324f21dc82a83bec",
    "ray/0.0/bare": "d01c14c6468ff1ff723a9d166a7c26a9d5752ddf8dd8cb6035bfb31c67386961",
    "ray/0.0/free": "3a37761dfebfe281eb5397d1c8189c78d2ded79304bf7a912b409f56605d0876",
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
        values = tree_green._zero_disorder_chain(q, depth, gamma, leaf_mode)
        viol = np.zeros(4, dtype=np.int64)
        _kernels._check_vec(values, abs_cap, floor, viol)
        omega_root = oracles.draw_omega_scalar(SPEC.kind_code, SPEC.support_bound, key, 0)
        return np.full(q + 1, values[0]), values[:spine_len].copy(), omega_root, viol
    return oracles.cavity_sweep(
        q, depth, q + 1, eps, gamma, leaf_for(leaf_mode, gamma, q), SPEC.kind_code,
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
        SPEC.kind_code, 1.0, 7, 3, 1, 5.0, 1e-8,
    )
    assert digest(branch, spine, np.float64(omega_root), viol) == GOLDEN[f"sweep/{tag}"]


@pytest.mark.parametrize("leaf_mode", ["bare", "free"])
@pytest.mark.parametrize("eps", [0.25, 0.0])
def test_ray_and_cavity_batches_golden(eps, leaf_mode):
    # "ray": Im G(o, y_r), r = 0..2, of (q+1)-branch balls down a ray of branch
    # 1, as the distance profile takes them; "cavity": q-branch root values,
    # their own bound checks added to the counters, as the moment table takes them
    q, depth, samples = 2, 7, 64
    gamma = 0.2 + 0.3j
    leaf = leaf_for(leaf_mode, gamma, q)
    cap, floor = 1.0 / gamma.imag, 1e-9
    root, spine, viol = _kernels.tree_batch(
        q, depth, q + 1, eps, [gamma], [leaf], SPEC.kind_code, 1.0, 99, samples, 2, 1,
        [cap], [floor],
    )
    assert root.shape == (1, samples) and spine.shape == (1, samples, 2) and viol.shape == (1, 4)
    im = tree_green._ray_green_im(root, spine)
    assert digest(im[0], viol[0]) == GOLDEN[f"ray/{eps}/{leaf_mode}"]
    zeta, spine, viol = _kernels.tree_batch(
        q, depth, q, eps, [gamma], [leaf], SPEC.kind_code, 1.0, 101, samples, 0, 0,
        [cap], [floor],
    )
    assert spine.shape == (1, samples, 0)
    _kernels._check_vec(zeta[0], cap, floor, viol[0])
    assert digest(zeta[0], viol[0]) == GOLDEN[f"cavity/{eps}/{leaf_mode}"]


@pytest.mark.parametrize("eps", [0.3, 0.0])
def test_message_passing_golden(eps):
    g = graphs.generate_random_regular(40, 2, seed=8)
    pot = anderson.sample_potential(40, SPEC, eps, seed=2)
    gamma = 0.1 + 0.2j
    msg0, viol = _kernels.messages_init(
        g.directed_targets(), pot.omega, pot.epsilon, gamma, 5.0, 0.0
    )
    msg, counts = _kernels.messages_advance(
        g.directed_targets(), g.reverse_edge_index(),
        pot.omega, pot.epsilon, gamma, msg0, 12, 5.0, 0.0,
    )
    assert digest(msg0, msg, viol + counts) == GOLDEN[f"messages/{eps}"]


def test_zero_disorder_chain_matches_kernel_sweep():
    q, depth = 2, 10
    gamma = 0.3 + 0.15j
    chain = tree_green._zero_disorder_chain(q, depth, gamma, "bare")
    branch, spine, _, _ = oracles.cavity_sweep(
        q, depth, q + 1, 0.0, gamma, None, SPEC.kind_code, 1.0,
        _rng.derive_key(3, "tree-sweep"), depth, 0, 1.0 / gamma.imag, 0.0,
    )
    assert np.array_equal(np.full(q + 1, chain[0]), branch)
    assert np.array_equal(chain, spine)


def test_segment_sums_matches_sequential():
    # per-vertex sums of the (vertices, deg) message view, as message passing takes them
    rng = np.random.default_rng(1)
    for n, deg in [(10, 3), (4, 7), (6, 1)]:
        vals = rng.normal(size=n * deg) + 1j * rng.normal(size=n * deg)
        out = _kernels._sum_children(vals.reshape(n, deg), deg)
        for v in range(n):
            s = 0.0 + 0.0j
            for e in range(v * deg, (v + 1) * deg):
                s += vals[e]
            assert out[v] == s
