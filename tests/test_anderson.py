import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
import scipy.linalg

from qelab import anderson, graphs
from qelab.errors import BudgetError, ConfigError, InvariantError


def test_sample_potential_deterministic_and_bounded():
    spec = anderson.PotentialSpec()
    a = anderson.sample_potential(1000, spec, 0.2, seed=9)
    b = anderson.sample_potential(1000, spec, 0.2, seed=9)
    assert np.array_equal(a.omega, b.omega)
    assert np.max(np.abs(a.omega)) <= 1.0
    assert np.max(np.abs(a.epsilon * a.omega)) <= 0.2


def test_sample_potential_moments():
    spec = anderson.PotentialSpec()
    pot = anderson.sample_potential(100000, spec, 0.0, seed=5)
    assert abs(pot.omega.mean()) < 0.01
    assert abs((pot.omega**2).mean() - 1.0 / 3.0) < 0.01


def test_two_point_needs_override():
    spec = anderson.PotentialSpec(kind="two-point")
    with pytest.raises(ConfigError, match="continuity"):
        anderson.sample_potential(10, spec, 0.1, seed=1)
    spec_ok = anderson.PotentialSpec(kind="two-point", allow_atomic=True)
    pot = anderson.sample_potential(10, spec_ok, 0.1, seed=1)
    assert set(np.unique(pot.omega)) <= {-1.0, 1.0}


def test_potential_spec_moments():
    uni = anderson.PotentialSpec()
    assert uni.moment(2) == pytest.approx(1 / 3)
    assert uni.moment(3) == 0.0
    assert uni.moment(4) == pytest.approx(1 / 5)
    beta = anderson.PotentialSpec(kind="rescaled-beta")
    assert beta.moment(2) == pytest.approx(1 / 5)
    assert beta.moment(4) == pytest.approx(3 / 35)


def test_assemble_k4_and_chain():
    k4 = graphs.generate_random_regular(4, 2, seed=1)
    spec = anderson.PotentialSpec()
    pot = anderson.sample_potential(4, spec, 0.0, seed=1)
    h = anderson.assemble(k4, pot)
    assert isinstance(h, np.ndarray)
    assert np.array_equal(h.sum(axis=1), np.full(4, 3.0))
    chain = anderson.assemble(
        SimpleNamespace(n=2, edges=np.array([[0, 1]])),
        anderson.PotentialAssignment(omega=np.zeros(2), epsilon=0.0, spec=spec),
    )
    assert np.array_equal(chain, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_assemble_trace_identity():
    g = graphs.generate_random_regular(64, 2, seed=7)
    pot = anderson.sample_potential(64, anderson.PotentialSpec(), 0.2, seed=3)
    h = anderson.assemble(g, pot)
    assert np.trace(h) == pytest.approx(0.2 * pot.omega.sum(), rel=1e-12)
    assert np.array_equal(h, h.T)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 2 * len(g.edges)


def test_assemble_length_mismatch():
    g = graphs.generate_random_regular(8, 2, seed=1)
    pot = anderson.sample_potential(6, anderson.PotentialSpec(), 0.1, seed=1)
    with pytest.raises(ConfigError):
        anderson.assemble(g, pot)


def test_eigendecompose_k4():
    k4 = graphs.generate_random_regular(4, 2, seed=1)
    pot = anderson.sample_potential(4, anderson.PotentialSpec(), 0.0, seed=1)
    sd = anderson.eigendecompose(anderson.assemble(k4, pot))
    assert np.allclose(sd.eigenvalues, [-1.0, -1.0, -1.0, 3.0], atol=1e-10)


def test_eigendecompose_k33():
    h = np.zeros((6, 6))
    for u in range(3):
        for v in range(3, 6):
            h[u, v] = h[v, u] = 1.0
    sd = anderson.eigendecompose(h)
    assert np.allclose(sd.eigenvalues, [-3.0, 0.0, 0.0, 0.0, 0.0, 3.0], atol=1e-10)


def test_spectral_invariants_disordered():
    g = graphs.generate_random_regular(64, 2, seed=7)
    pot = anderson.sample_potential(64, anderson.PotentialSpec(), 0.2, seed=3)
    h = anderson.assemble(g, pot)
    sd = anderson.eigendecompose(h)
    # residual and orthonormality
    res = h @ sd.eigenvectors - sd.eigenvectors * sd.eigenvalues
    assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(sd.eigenvalues))
    gram = sd.eigenvectors.T @ sd.eigenvectors
    assert np.max(np.abs(gram - np.eye(64))) <= 1e-8
    # trace identities
    assert np.sum(sd.eigenvalues) == pytest.approx(0.2 * pot.omega.sum(), rel=1e-8)
    assert np.sum(sd.eigenvalues**2) == pytest.approx(
        64 * 3 + 0.04 * (pot.omega**2).sum(), rel=1e-8
    )
    # spectrum range: tree band plus potential support
    assert sd.eigenvalues[0] >= -3.2 - 1e-9
    assert sd.eigenvalues[-1] <= 3.2 + 1e-9
    anderson.check_spectrum_bound(sd, 2, 0.2, 1.0)


def test_eigendecompose_deterministic_sign():
    g = graphs.generate_random_regular(32, 2, seed=4)
    pot = anderson.sample_potential(32, anderson.PotentialSpec(), 0.3, seed=2)
    h = anderson.assemble(g, pot)
    a = anderson.eigendecompose(h)
    b = anderson.eigendecompose(h.copy())
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for i in range(32):
        col = a.eigenvectors[:, i]
        first = col[np.argmax(np.abs(col) > 1e-8)]
        assert first > 0


def signs_by_column_loop(vecs):
    """The per-column sign convention, one column at a time."""
    vecs = vecs.copy()
    for i in range(vecs.shape[1]):
        col = vecs[:, i]
        idx = np.argmax(np.abs(col) > 1e-8)
        if col[idx] < 0:
            vecs[:, i] = -col
    return vecs


def test_sign_convention_matches_column_loop():
    g = graphs.generate_random_regular(200, 2, seed=4)
    pot = anderson.sample_potential(200, anderson.PotentialSpec(), 0.3, seed=2)
    h = anderson.assemble(g, pot)
    _, raw = scipy.linalg.eigh(h, driver="evd")
    got = anderson.eigendecompose(h).eigenvectors
    assert np.array_equal(got.view(np.int64), signs_by_column_loop(raw).view(np.int64))
    # leading entries under the threshold, an all-zero column, negative zeros
    m = np.array([[1e-9, -1e-9, 0.0, -0.0],
                  [-0.5, 0.5, 0.0, 2.0],
                  [0.3, -0.2, -0.0, -1.0]])
    flipped = m.copy()
    anderson._canonical_signs(flipped)
    assert np.array_equal(flipped.view(np.int64), signs_by_column_loop(m).view(np.int64))
    # two components: the eigenvectors of the one without vertex 0 vanish at
    # row 0, so their signs are decided further down
    h2 = anderson.assemble(graphs.generate_random_regular(120, 2, seed=5),
                           anderson.sample_potential(120, anderson.PotentialSpec(), 0.3, seed=3))
    two = scipy.linalg.block_diag(h, h2)
    _, raw = scipy.linalg.eigh(two, driver="evd")
    assert (np.abs(raw[0]) <= 1e-8).sum() >= 100
    got = anderson.eigendecompose(two).eigenvectors
    assert np.array_equal(got.view(np.int64), signs_by_column_loop(raw).view(np.int64))


def test_eigendecompose_rejects_asymmetric_and_nan():
    h = np.zeros((3, 3))
    h[0, 1] = h[1, 0] = 1.0
    h[1, 0] += 2e-12
    with pytest.raises(ConfigError, match="symmetric"):
        anderson.eigendecompose(h)
    h[1, 0] = 1.0 + 1e-13  # within the 1e-12 tolerance
    anderson.eigendecompose(h)
    for i, j in [(0, 0), (0, 2)]:
        nan = np.eye(3)
        nan[i, j] = np.nan
        with pytest.raises(ConfigError, match="symmetric"):
            anderson.eigendecompose(nan)


@pytest.mark.parametrize("entry", [(66, 3), (3, 66), (66, 64), (65, 66)])
def test_asymmetry_in_the_last_row_block_raises(entry):
    # 67 rows: the last block of the blocked check holds 67 % 8 = 3 rows
    g = graphs.generate_random_regular(68, 2, seed=4)
    pot = anderson.sample_potential(68, anderson.PotentialSpec(), 0.2, seed=4)
    h = anderson.assemble(g, pot)[:67, :67].copy()
    anderson.eigendecompose(h)
    for value in (h[entry] + 1e-9, np.nan):
        bad = h.copy()
        bad[entry] = value
        with pytest.raises(ConfigError, match="symmetric"):
            anderson.eigendecompose(bad)


@pytest.mark.parametrize("row", [0, 66])
def test_perturbed_eigenvector_fails_the_residual(monkeypatch, row):
    # a 64-vertex graph plus three isolated sites: a perturbation in row 66
    # shows in the residual of row 66 alone, the last, partial row block
    g = graphs.generate_random_regular(64, 2, seed=4)
    pot = anderson.sample_potential(64, anderson.PotentialSpec(), 0.2, seed=4)
    h = np.zeros((67, 67))
    h[:64, :64] = anderson.assemble(g, pot)
    h[np.arange(64, 67), np.arange(64, 67)] = [0.5, -0.25, 0.125]
    eigh = np.linalg.eigh

    def perturbed(matrix):
        vals, vecs = eigh(matrix)
        vecs[row, 10] += 1e-6
        return vals, vecs

    monkeypatch.setattr(anderson.np.linalg, "eigh", perturbed)
    with pytest.raises(InvariantError, match="eigen residual"):
        anderson.eigendecompose(h)


def test_blocked_residual_matches_the_dense_product():
    g = graphs.generate_random_regular(301, 3, seed=2)
    pot = anderson.sample_potential(301, anderson.PotentialSpec(), 0.3, seed=3)
    rng = np.random.default_rng(5)
    dense = rng.uniform(-1.0, 1.0, size=(203, 203)) / 15.0
    for h in (anderson.assemble(g, pot), dense + dense.T):
        vals, vecs = np.linalg.eigh(h)
        gemm = float(np.max(np.abs(h @ vecs - vecs * vals)))
        assert abs(anderson._max_residual(h, vals, vecs) - gemm) <= 1e-15
        assert gemm > 0.0


def test_dimension_cap():
    with pytest.raises(BudgetError):
        anderson.eigendecompose(np.zeros((5000, 5000)))


def test_assemble_refuses_beyond_the_cap_before_allocating():
    n = 5000
    g = graphs.generate_random_regular(n, 2, seed=1)
    pot = anderson.sample_potential(n, anderson.PotentialSpec(), 0.2, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="cap"):
            anderson.assemble(g, pot)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the n x n array would take 200 MB


@pytest.mark.parametrize("n", [250, 1000])
def test_eigendecompose_matches_scipy_evd(n):
    g = graphs.generate_random_regular(n, 2, seed=n)
    pot = anderson.sample_potential(n, anderson.PotentialSpec(), 0.3, seed=n + 1)
    h = anderson.assemble(g, pot)
    vals, raw = scipy.linalg.eigh(h, driver="evd")
    sd = anderson.eigendecompose(h)
    assert np.max(np.abs(sd.eigenvalues - vals)) <= 1e-12
    assert np.max(np.abs(sd.eigenvectors - signs_by_column_loop(raw))) <= 1e-12


def test_perron_multiplicity_connected_vs_not():
    g = graphs.generate_random_regular(20, 2, seed=1)
    pot = anderson.sample_potential(20, anderson.PotentialSpec(), 0.0, seed=1)
    sd = anderson.eigendecompose(anderson.assemble(g, pot))
    assert np.count_nonzero(np.abs(sd.eigenvalues - 3.0) < 1e-8) == 1
    two = oracles.graph_from_edges(
        8, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
               (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    )
    pot8 = anderson.sample_potential(8, anderson.PotentialSpec(), 0.0, seed=1)
    sd8 = anderson.eigendecompose(anderson.assemble(two, pot8))
    assert np.count_nonzero(np.abs(sd8.eigenvalues - 3.0) < 1e-8) == 2


def test_window_mask_open_interval():
    sd = anderson.SpectralData(
        eigenvalues=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
        eigenvectors=np.eye(5),
    )
    mask = sd.window_mask(2.0)
    assert mask.tolist() == [False, True, True, True, False]
    assert sd.window(2.0) == slice(1, 4) and sd.window(0.5) == slice(2, 3)
    assert sd.window(0.0) == slice(0, 0)
    # reversed, as an eigen-permutation test builds it: still one run
    rev = anderson.SpectralData(eigenvalues=sd.eigenvalues[::-1], eigenvectors=np.eye(5))
    assert rev.window(1.5) == slice(1, 4)
    shuffled = anderson.SpectralData(eigenvalues=sd.eigenvalues[[1, 0, 2, 4, 3]], eigenvectors=np.eye(5))
    with pytest.raises(ConfigError, match="one run of columns"):
        shuffled.window(2.0)
