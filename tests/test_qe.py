import numpy as np
import oracles
import pytest

from qelab import _kernels, _rng, anderson, graphs, qe, tree_green as tg
from qelab.errors import ConfigError

SPEC = anderson.PotentialSpec()

# brute-force references for (n=64, q=2, graphseed=7, eps=0.2, potseed=3,
# lambda0=2.0), recorded before wiring the pipeline; the kernel value pins
# the edge kernel with the ratio profile (23-point grid on [-2.2, 2.2],
# 200 samples, seed 5, depth 10, eta0=0.2, free leaves), recorded once every
# lambda of the profile was swept over the same balls
DIAG_REFERENCE = 0.04467706150383817
DIAG_REFERENCE_WINDOW = 41
KERNEL_REFERENCE = 0.02377746652975731


@pytest.fixture(scope="module")
def small_case():
    g = graphs.generate_random_regular(64, 2, seed=7)
    pot = anderson.sample_potential(64, SPEC, 0.2, seed=3)
    sd = anderson.eigendecompose(anderson.assemble(g, pot))
    obs = qe.make_observable("indicator", 64, seed=17, alpha=0.5)
    return g, pot, sd, obs


def test_observable_examples():
    const = qe.make_observable("constant", 4, constant=1.0)
    assert const.mean() == 1.0
    ind = qe.make_observable("indicator", 64, seed=3, alpha=0.5)
    assert ind.mean() == 0.5
    delta = qe.make_observable("delta", 10, vertex=3)
    assert delta.mean() == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        qe.make_observable("constant", 4, constant=1.5)


def test_observable_deterministic():
    a = qe.make_observable("indicator", 100, seed=5, alpha=0.3)
    b = qe.make_observable("indicator", 100, seed=5, alpha=0.3)
    assert np.array_equal(a.values, b.values)
    c = qe.make_observable("indicator", 100, seed=6, alpha=0.3)
    assert not np.array_equal(a.values, c.values)


def test_constant_observable_statistic_zero(small_case):
    _, _, sd, _ = small_case
    rep = qe.qe_statistic_diag(sd, qe.make_observable("constant", 64, constant=0.7), 2.0, q=2)
    assert rep.statistic <= 1e-12


def test_statistic_invariant_under_constant_shift(small_case):
    _, _, sd, obs = small_case
    base = qe.qe_statistic_diag(sd, obs, 2.0, q=2)
    shifted = qe.Observable(values=obs.values - 0.5, tag="shifted")
    rep = qe.qe_statistic_diag(sd, shifted, 2.0, q=2)
    assert rep.statistic == pytest.approx(base.statistic, abs=1e-12)


def test_statistic_invariant_under_global_sign(small_case):
    _, _, sd, obs = small_case
    flipped = anderson.SpectralData(
        eigenvalues=sd.eigenvalues, eigenvectors=-sd.eigenvectors
    )
    a = qe.qe_statistic_diag(sd, obs, 2.0, q=2)
    b = qe.qe_statistic_diag(flipped, obs, 2.0, q=2)
    assert a.statistic == b.statistic


def test_statistic_invariant_under_eigen_permutation(small_case):
    _, _, sd, obs = small_case
    perm = np.arange(sd.n)[::-1]
    rev = anderson.SpectralData(
        eigenvalues=sd.eigenvalues[perm], eigenvectors=sd.eigenvectors[:, perm]
    )
    a = qe.qe_statistic_diag(sd, obs, 2.0, q=2)
    b = qe.qe_statistic_diag(rev, obs, 2.0, q=2)
    assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
    assert a.window_count == b.window_count


def test_diag_statistic_against_brute_force(small_case):
    g, pot, sd, obs = small_case
    rep = qe.qe_statistic_diag(sd, obs, 2.0, q=2)
    # independent path: dense numpy diagonalization plus direct summation
    vals, vecs = np.linalg.eigh(anderson.assemble(g, pot))
    total, count = 0.0, 0
    mean_a = obs.values.mean()
    for i in range(64):
        if -2.0 < vals[i] < 2.0:
            bracket = sum(obs.values[x] * vecs[x, i] ** 2 for x in range(64))
            total += abs(bracket - mean_a)
            count += 1
    assert rep.statistic == pytest.approx(total / 64, abs=1e-12)
    assert rep.window_count == count == DIAG_REFERENCE_WINDOW
    assert rep.statistic == pytest.approx(DIAG_REFERENCE, abs=1e-12)


def test_kernel_statistic_against_brute_force(small_case):
    g, pot, sd, _ = small_case
    profile = tg.distance_ratio_profile(
        2, SPEC, 0.2, 0.2, 1, np.linspace(-2.2, 2.2, 23), samples=200, seed=5, depth=10
    )
    # the grid sweep equals a loop of one-gamma tree batches over the same balls
    violations = np.zeros(4, dtype=np.int64)
    for i, lam in enumerate(profile.lambdas):
        gamma = complex(lam, 0.2)
        floor = tg.imag_floor(2, 0.2, SPEC.support_bound, abs(lam), 0.2)
        root, spine, viol = _kernels.tree_batch(
            2, 10, 3, 0.2, [gamma], [tg.free_forward_green_complex(gamma, 2)], SPEC.kind_code,
            SPEC.support_bound, _rng.derive_key(5, "profile"), 200, 1, 0, [5.0], [floor],
        )
        means, stderrs = tg._mean_stderr(tg._ray_green_im(root, spine)[0])
        assert np.array_equal(profile.means[:, i], means)
        assert np.array_equal(profile.stderrs[:, i], stderrs)
        assert profile.ratios[1, i] == means[1] / means[0] and profile.ratios[0, i] == 1.0
        violations += viol[0]
    assert np.array_equal(profile.violations, violations)
    kernel = qe.edge_kernel(g)
    curve = qe.kernel_average_simple(kernel, profile)
    rep = qe.qe_statistic_kernel(sd, kernel, 2.0, curve, q=2)
    # independent path: dense numpy diagonalization, explicit entry loops,
    # manual interpolation of the same ratio curve
    vals, vecs = np.linalg.eigh(anderson.assemble(g, pot))
    s1 = kernel.values.sum() / 64
    total, count = 0.0, 0
    for i in range(64):
        if not (-2.0 < vals[i] < 2.0):
            continue
        bracket = 0.0
        for x, y, v in zip(kernel.rows, kernel.cols, kernel.values):
            bracket += v * vecs[x, i] * vecs[y, i]
        ratio1 = np.interp(vals[i], profile.lambdas, profile.ratios[1])
        total += abs(bracket - ratio1 * s1)
        count += 1
    assert rep.window_count == count
    assert rep.statistic == pytest.approx(total / 64, abs=1e-12)
    assert rep.statistic == pytest.approx(KERNEL_REFERENCE, abs=1e-12)


def test_file_observable(tmp_path):
    import json

    path = tmp_path / "obs.json"
    path.write_text(json.dumps([0.5, -0.5, 0.25, 0.0]))
    obs = qe.make_observable("file", 4, path=str(path))
    assert obs.values.tolist() == [0.5, -0.5, 0.25, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([0.5, 2.0, 0.0, 0.0]))
    with pytest.raises(ConfigError, match="sup bound"):
        qe.make_observable("file", 4, path=str(bad))
    short = tmp_path / "short.json"
    short.write_text(json.dumps([0.5, 0.5]))
    with pytest.raises(ConfigError, match="4 values"):
        qe.make_observable("file", 4, path=str(short))


def test_k4_projector_trace():
    k4 = graphs.generate_random_regular(4, 2, seed=1)
    sd = anderson.eigendecompose(
        anderson.assemble(k4, anderson.sample_potential(4, SPEC, 0.0, seed=1))
    )
    cluster = np.abs(sd.eigenvalues + 1.0) < 1e-8
    proj = sd.eigenvectors[:, cluster] @ sd.eigenvectors[:, cluster].T
    chi = np.zeros(4)
    chi[:2] = 1.0  # any two-vertex set
    assert np.trace(np.diag(chi) @ proj) == pytest.approx(1.5, abs=1e-10)


def test_r0_kernel_report_bitwise_equals_diag(small_case):
    _, _, sd, obs = small_case
    diag_rep = qe.qe_statistic_diag(sd, obs, 2.0, q=2)
    kernel = qe.diagonal_kernel(obs)
    kern_rep = qe.qe_statistic_kernel(
        sd, kernel, 2.0, qe.unit_diagonal_curve(kernel), q=2
    )
    assert kern_rep.statistic == diag_rep.statistic
    assert kern_rep.window_count == diag_rep.window_count
    assert np.array_equal(kern_rep.brackets, diag_rep.brackets)
    assert np.array_equal(kern_rep.averages, diag_rep.averages)


def test_zero_kernel_statistic(small_case):
    g, _, sd, _ = small_case
    kernel = qe.edge_kernel(g, value=0.0)
    curve = qe.KernelAverageCurve(
        lambdas=np.array([-3.0, 3.0]), values=np.zeros(2), eta=0.2, r_max=1,
    )
    rep = qe.qe_statistic_kernel(sd, kernel, 2.0, curve, q=2)
    assert rep.statistic == 0.0


def test_trace_identity_all_eigenvalues(small_case):
    g, _, sd, obs = small_case
    kernel = qe.edge_kernel(g)
    brackets = qe._quadratic_brackets(kernel, sd.eigenvectors)
    assert brackets.sum() == pytest.approx(0.0, abs=1e-8)  # zero diagonal
    kd = qe.diagonal_kernel(obs)
    total = qe._quadratic_brackets(kd, sd.eigenvectors).sum()
    assert total == pytest.approx(obs.values.sum(), rel=1e-8)


def test_blocked_brackets_match_full_einsum():
    n = 400
    g = graphs.generate_random_regular(n, 2, seed=8)
    pot = anderson.sample_potential(n, SPEC, 0.2, seed=9)
    sd = anderson.eigendecompose(anderson.assemble(g, pot))
    vecs = sd.eigenvectors
    idx = np.nonzero(sd.window_mask(2.4))[0]
    assert idx.size > 2 * qe._BRACKET_BLOCK
    for kernel in (qe.edge_kernel(g), qe.diagonal_kernel(qe.make_observable("indicator", n, 3))):
        full = np.einsum("e,ei,ei->i", kernel.values, vecs[kernel.rows], vecs[kernel.cols])
        window = qe._quadratic_brackets(kernel, vecs, idx)
        assert np.array_equal(window.view(np.int64), full[idx].view(np.int64))
        every = qe._quadratic_brackets(kernel, vecs)
        assert np.array_equal(every.view(np.int64), full.view(np.int64))


def test_kernel_requires_real_for_positive_range(small_case):
    g, _, sd, _ = small_case
    kernel = qe.edge_kernel(g)
    curve = qe.KernelAverageCurve(
        lambdas=np.array([-3.0, 3.0]), values=np.zeros(2), eta=0.2, r_max=1,
    )
    complex_sd = anderson.SpectralData(
        eigenvalues=sd.eigenvalues,
        eigenvectors=sd.eigenvectors.astype(np.complex128),
    )
    with pytest.raises(ConfigError, match="real"):
        qe.qe_statistic_kernel(complex_sd, kernel, 2.0, curve, q=2)


def test_window_validation():
    sd = anderson.SpectralData(eigenvalues=np.zeros(2), eigenvectors=np.eye(2))
    obs = qe.make_observable("constant", 2, constant=1.0)
    with pytest.raises(ConfigError, match="2\\*sqrt"):
        qe.qe_statistic_diag(sd, obs, 3.0, q=2)


def test_kernel_sup_bound_rejected(small_case):
    g, _, _, _ = small_case
    with pytest.raises(ConfigError):
        qe.edge_kernel(g, value=1.5)


def test_ring_kernel_distances(small_case):
    g, _, _, _ = small_case
    ring = qe.ring_kernel(g, 2)
    assert np.all(ring.distances == 2)
    for x, y in zip(ring.rows[:20], ring.cols[:20]):
        d, _ = graphs.distance_and_geodesic(g, int(x), int(y))
        assert d == 2


# ----------------------------------------------------------------------
# kernel averages
# ----------------------------------------------------------------------


def test_kernel_average_r0_equals_observable_mean(small_case):
    _, _, _, obs = small_case
    kernel = qe.diagonal_kernel(obs)
    curve = qe.unit_diagonal_curve(kernel)
    for lam in (-1.0, 0.0, 0.5):
        assert complex(curve(lam)) == complex(obs.values.mean())


def test_kernel_average_free_vanishes_at_band_center(small_case):
    g, _, _, _ = small_case
    # zero disorder: the nearest-neighbor ratio vanishes at lam = 0
    profile = tg.distance_ratio_profile(
        2, SPEC, 0.0, 0.0, 1, [-1.0, -0.5, 0.0, 0.5, 1.0], samples=4, seed=1, depth=40
    )
    curve = qe.kernel_average_simple(qe.edge_kernel(g), profile)
    assert abs(complex(curve(0.0))) < 1e-12
    assert abs(complex(curve(0.5))) > 1e-3


def test_kernel_average_interpolation_error_reported(small_case, reference_profile):
    g, _, _, _ = small_case
    curve = qe.kernel_average_simple(qe.edge_kernel(g), reference_profile)
    bound = curve.interpolation_error_bound()
    assert 0.0 <= bound < 0.05  # second-order small at 0.05 grid spacing
    flat = qe.unit_diagonal_curve(qe.diagonal_kernel(qe.make_observable("constant", g.n)))
    assert flat.interpolation_error_bound() == 0.0
    # the bound on the tabulated sum never exceeds the per-distance one, and
    # equals it for kernels supported on a single distance; the ring-2 kernel
    # needs a profile reaching distance 2 on the same grid
    ring_profile = tg.distance_ratio_profile(
        2, SPEC, 0.2, 0.2, 2, reference_profile.lambdas, samples=64, seed=911_000, depth=8
    )
    for kernel, profile in ((qe.edge_kernel(g), reference_profile),
                            (qe.ring_kernel(g, 2), ring_profile)):
        bound = qe.kernel_average_simple(kernel, profile).interpolation_error_bound()
        per_distance = oracles.per_distance_interpolation_bound(kernel, profile)
        assert bound > 0.0
        assert bound <= per_distance * (1 + 1e-12), kernel.tag
        assert bound == pytest.approx(per_distance, rel=1e-12), kernel.tag


def test_kernel_average_simple_range_mismatch(small_case):
    g, _, _, _ = small_case
    profile = tg.distance_ratio_profile(
        2, SPEC, 0.2, 0.2, 0, [-1.0, 1.0], samples=8, seed=1, depth=6
    )
    with pytest.raises(ConfigError, match="range"):
        qe.kernel_average_simple(qe.edge_kernel(g), profile)


def test_kernel_average_general_examples(small_case):
    g, pot, _, obs = small_case
    zero = qe.edge_kernel(g, value=0.0)
    assert qe.kernel_average_general_curve(zero, g, pot, [0.5], 0.2, depth=20).values[0] == 0.0
    # R = 0 reduces to the lifted-diagonal weighted mean
    kd = qe.diagonal_kernel(obs)
    got = qe.kernel_average_general_curve(kd, g, pot, [0.5], 0.2, depth=20).values[0]
    lifted = tg.lifted_green(g, pot, 0.5 + 0.2j, 20, tg.pair_lifts(g, [[x] for x in range(g.n)]))
    want = (obs.values * lifted.diagonals.imag).sum() / lifted.diagonals.imag.sum()
    assert got == pytest.approx(want, rel=1e-12)


def test_kernel_average_general_zero_disorder_mean(small_case):
    g, _, _, obs = small_case
    pot0 = anderson.sample_potential(64, SPEC, 0.0, seed=3)
    kd = qe.diagonal_kernel(obs)
    got = qe.kernel_average_general_curve(kd, g, pot0, [0.3], 0.2, depth=60).values[0]
    assert got == pytest.approx(obs.values.mean(), abs=1e-12)


def _lifted_kernels(g):
    return [
        qe.edge_kernel(g),
        qe.ring_kernel(g, 2, value=0.5),
        qe.ring_kernel(g, 3),
        qe.diagonal_kernel(qe.make_observable("indicator", g.n, seed=17, alpha=0.5)),
    ]


@pytest.mark.parametrize("q", [2, 3])
def test_lifted_pairs_match_pairwise_oracle_bitwise(q):
    # one lift per kernel and graph, products one step at a time over all
    # entries: the same bits as a BFS geodesic and a scalar product per entry
    g = graphs.generate_random_regular(48, q, seed=13)
    pot = anderson.sample_potential(48, SPEC, 0.3, seed=8)
    lambdas = [-1.7, 0.0, 0.4, 2.1]
    for kernel in _lifted_kernels(g):
        lifts = qe._kernel_lifts(kernel, g)
        want_curve = []
        for lam in lambdas:
            gamma = complex(lam, 0.1)
            got = tg.lifted_green(g, pot, gamma, 14, lifts)
            diag, pairs, viol = oracles.lifted_green_pairwise(
                g, pot, gamma, 14, kernel.rows, kernel.cols
            )
            assert np.array_equal(got.diagonals, diag), kernel.tag
            assert np.array_equal(got.pair_values, pairs), kernel.tag
            assert np.array_equal(got.violations, viol), kernel.tag
            want_curve.append((kernel.values * pairs.imag).sum() / diag.imag.sum())
        curve = qe.kernel_average_general_curve(kernel, g, pot, lambdas, 0.1, depth=14)
        assert np.array_equal(curve.values, np.array(want_curve)), kernel.tag


def test_kernel_lifts_run_one_geodesic_per_far_entry(small_case, monkeypatch):
    g, pot, _, _ = small_case
    calls = []
    bfs = graphs.distance_and_geodesic

    def counted(*args):
        calls.append(args[1:])
        return bfs(*args)

    monkeypatch.setattr(graphs, "distance_and_geodesic", counted)
    lambdas = [-2.0, -1.0, 0.0, 1.0, 2.0]
    edges, ring2 = qe.edge_kernel(g), qe.ring_kernel(g, 2)
    qe.kernel_average_general_curve(edges, g, pot, lambdas, 0.2, depth=10)
    assert calls == []
    qe.kernel_average_general_curve(ring2, g, pot, lambdas, 0.2, depth=10)
    assert sorted(calls) == sorted(zip(ring2.rows.tolist(), ring2.cols.tolist()))

    profile = tg.distance_ratio_profile(
        2, SPEC, 0.2, 0.2, 2, [-1.0, 0.0, 1.0], samples=4, seed=1, depth=6
    )
    # one BFS per ring-2 entry and graph, none for the edge kernel
    for builder, far in ((qe.edge_kernel, False), (lambda g: qe.ring_kernel(g, 2), True)):
        calls.clear()
        oracles.average_equivalence_check(
            2, SPEC, 0.2, [32, 40], [(1, 11), (2, 12)], lambdas, 0.2,
            profile, cover_depth=10, kernel_builder=builder,
        )
        entries = sum(builder(graphs.generate_random_regular(n, 2, gs)).rows.size
                      for n in (32, 40) for gs in (1, 2))
        assert len(calls) == (entries if far else 0)


def test_kernel_statistic_from_general_curve(small_case):
    g, pot, sd, _ = small_case
    kernel = qe.edge_kernel(g)
    curve = qe.kernel_average_general_curve(
        kernel, g, pot, np.linspace(-2.2, 2.2, 12), 0.2, depth=30
    )
    rep = qe.qe_statistic_kernel(sd, kernel, 2.0, curve, q=2)
    assert np.isfinite(rep.statistic) and rep.statistic >= 0
    assert rep.window_count == DIAG_REFERENCE_WINDOW
    bound = curve.interpolation_error_bound()
    assert np.isfinite(bound) and bound >= 0.0


def test_ring_kernel_statistic_r2(small_case):
    g, _, sd, _ = small_case
    kernel = qe.ring_kernel(g, 2, value=0.5)
    profile = tg.distance_ratio_profile(
        2, SPEC, 0.2, 0.2, 2, [-2.2, -1.0, 0.0, 1.0, 2.2], samples=64, seed=4, depth=8
    )
    curve = qe.kernel_average_simple(kernel, profile)
    rep = qe.qe_statistic_kernel(sd, kernel, 2.0, curve, q=2)
    assert np.isfinite(rep.statistic) and rep.statistic > 0
    assert rep.r_max == 2


def test_average_equivalence_zero_disorder_r0():
    profile = tg.distance_ratio_profile(
        2, SPEC, 0.0, 0.2, 0, [-0.5, 0.0, 0.5], samples=4, seed=1, depth=60
    )

    def builder(g):
        return qe.diagonal_kernel(qe.make_observable("indicator", g.n, seed=17, alpha=0.5))

    table = oracles.average_equivalence_check(
        2, SPEC, 0.0, [32, 64], [(1, 11)], [-0.5, 0.0, 0.5], 0.2,
        profile, kernel_builder=builder, cover_depth=60,
    )
    for n, gaps in table.gaps.items():
        assert max(gaps) < 1e-10
