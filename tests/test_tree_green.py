import math

import numpy as np
import oracles
import pytest

from qelab import _kernels, _rng, anderson, graphs, tree_green as tg
from qelab.errors import BudgetError, ConfigError

SPEC = anderson.PotentialSpec()


def sweep(q, eps, gamma, depth, seed, leaf_mode="bare", spine_len=0):
    """One tree ball (q+1 branches) keyed by ``seed``, with the sweep's bounds."""
    return oracles.cavity_sweep(
        q, depth, q + 1, eps, gamma, tg._leaf_value(gamma, q, leaf_mode),
        SPEC.kind, SPEC.support_bound, _rng.derive_key(seed, "tree-sweep"),
        spine_len, 0, 1.0 / gamma.imag,
        tg.imag_floor(q, eps, SPEC.support_bound, abs(gamma.real), gamma.imag),
    )


# ----------------------------------------------------------------------
# free (zero-disorder) values
# ----------------------------------------------------------------------


def test_free_forward_green_values():
    assert tg.free_forward_green(0.0, 2) == pytest.approx(-1j / math.sqrt(2), abs=1e-12)
    assert tg.free_forward_green(1.0, 2) == pytest.approx(0.25 - 1j * math.sqrt(7) / 4, abs=1e-12)
    assert tg.free_forward_green(0.0, 3) == pytest.approx(-1j * 2 * math.sqrt(3) / 6, abs=1e-12)
    with pytest.raises(ConfigError):
        tg.free_forward_green(2 * math.sqrt(2), 2)


def test_free_complex_matches_fixed_point():
    z_quad = tg.free_forward_green_complex(0.5 + 0.1j, 2)
    z_fp = oracles.fixed_point_forward_green(0.5 + 0.1j, 2, tol=1e-12)
    assert abs(z_quad - z_fp) < 1e-8
    assert abs(2 * z_quad * z_quad - (0.5 + 0.1j) * z_quad + 1) < 1e-12
    assert z_quad.imag < 0


def test_free_complex_limits_and_bounds():
    near = tg.free_forward_green_complex(0.0 + 1e-6j, 2)
    assert abs(near - (-1j / math.sqrt(2))) < 1e-5
    far = tg.free_forward_green_complex(10.0 + 1.0j, 2)
    assert abs(far) <= 1.0  # CavityField modulus cap at eta = 1
    for lam in np.linspace(-2.5, 2.5, 11):
        z = tg.free_forward_green_complex(complex(lam, 0.3), 2)
        assert z.imag < 0


# ----------------------------------------------------------------------
# tree sweeps against dense inversion
# ----------------------------------------------------------------------


def test_sweep_depth2_matches_dense_inversion():
    q, depth, eps, seed = 2, 2, 0.2, 31
    gamma = 0.3 + 0.2j
    root_values, _, omega_root, _ = sweep(q, eps, gamma, depth, seed)
    h, omegas, offsets = oracles.materialized_tree_operator(q, depth, q + 1, eps, SPEC, seed)
    assert omega_root == omegas[0]
    g_dense = np.linalg.inv(h - gamma * np.eye(h.shape[0]))
    for b in range(q + 1):
        node = offsets[1] + b
        # cavity value = -(subtree Green diagonal); subtree = node + its children
        sub = [node] + [offsets[2] + b * q + c for c in range(q)]
        gsub = np.linalg.inv(h[np.ix_(sub, sub)] - gamma * np.eye(len(sub)))
        assert abs(root_values[b] - (-gsub[0, 0])) < 1e-12


def test_full_ball_row_matches_dense_inversion():
    for q, depth, seed, lam in [(2, 3, 5, 0.0), (3, 3, 6, -1.0), (2, 4, 7, 0.7)]:
        gamma = complex(lam, 0.1)
        h, omegas, _ = oracles.materialized_tree_operator(q, depth, q + 1, 0.3, SPEC, seed)
        row, om2 = oracles.full_ball_green_row(q, depth, q + 1, 0.3, SPEC, gamma, seed)
        assert np.array_equal(omegas, om2)
        dense = np.linalg.inv(h - gamma * np.eye(h.shape[0]))[0]
        assert np.max(np.abs(dense - row)) < 1e-10


def test_sweep_free_seed_is_exact_at_zero_disorder():
    # with free-value leaves the zero-disorder recursion is stationary
    gamma = 0.5 + 0.1j
    want = tg.free_forward_green_complex(gamma, 2)
    chain = oracles.zero_disorder_chain(2, 50, gamma, "free")
    assert np.max(np.abs(chain - want)) < 1e-13


def test_sweep_bare_converges_at_zero_disorder():
    # bare leaves contract with rate |q zeta^2| ~ 0.93 at eta = 0.1: depth 250
    gamma = 0.5 + 0.1j
    want = tg.free_forward_green_complex(gamma, 2)
    chain = oracles.zero_disorder_chain(2, 250, gamma, "bare")
    assert abs(chain[0] - want) < 1e-6


def test_sweep_cavity_invariants():
    for eps, gamma in [(0.3, 0.5 + 0.1j), (0.5, -1.0 + 0.05j), (0.2, 0.0 + 0.4j)]:
        root_values, _, _, violations = sweep(2, eps, gamma, 10, seed=5, spine_len=5)
        assert violations[:3].tolist() == [0, 0, 0]
        assert np.all(root_values.imag < 0)
        assert np.all(np.abs(root_values) <= 1.0 / gamma.imag * (1 + 1e-12))
        floor = tg.imag_floor(2, eps, 1.0, abs(gamma.real), gamma.imag)
        assert np.all(-root_values.imag >= floor * (1 - 1e-12))


def test_sweep_work_cap():
    # depth 24 puts one q=2 ball beyond DEFAULT_WORK_CAP = 2**24 nodes
    with pytest.raises(BudgetError, match="lower the depth"):
        tg.distance_ratio_profile(2, SPEC, 0.3, 0.1, 1, [0.5], 1, 1, 24)
    # zero disorder collapses to a chain: any depth is fine
    tg.distance_ratio_profile(2, SPEC, 0.0, 0.1, 1, [0.5], 1, 1, 300)


def test_eta_zero_rejected_unless_free_zero_disorder():
    with pytest.raises(ConfigError):
        tg.distance_ratio_profile(2, SPEC, 0.2, 0.0, 1, [0.5], 2, 1, 4)
    with pytest.raises(ConfigError):
        tg.distance_ratio_profile(2, SPEC, 0.0, 0.0, 1, [0.5], 2, 1, 4, leaf_mode="bare")
    tg.distance_ratio_profile(2, SPEC, 0.0, 0.0, 1, [0.5], 2, 1, 4, leaf_mode="free")
    # the moment table's root is the free value itself, exact at eta = 0
    table = tg.green_condition_moments(2, SPEC, 0.0, [0.5], [0.0], [1.0], 2, 1, 4, "free")
    assert table.points[0].abs_mean == -tg.free_forward_green(0.5, 2).imag


# ----------------------------------------------------------------------
# Schur diagonal and path factorization
# ----------------------------------------------------------------------


def test_green_diagonal_free_value_and_kesten_mckay():
    zeta = tg.free_forward_green(0.0, 2)
    diag = oracles.green_diagonal([zeta] * 3, 0.0, 0.0, 0.0 + 0.0j)
    assert diag == pytest.approx(1j * math.sqrt(2) / 3, abs=1e-14)
    assert diag.imag / math.pi == pytest.approx(0.15005, abs=1e-5)


def test_two_site_chain_identities():
    gamma = 1j
    zeta = oracles.crecip_scalar(gamma)  # bare cavity at the far site
    assert zeta == -1j
    diag = oracles.green_diagonal([zeta], 0.0, 0.0, gamma)
    assert diag == pytest.approx(0.5j, abs=1e-15)
    off = diag * zeta  # the off-diagonal factorizes along the path
    assert off == pytest.approx(0.5, abs=1e-15)
    dense = np.linalg.inv(np.array([[0.0, 1.0], [1.0, 0.0]]) - gamma * np.eye(2))
    assert diag == pytest.approx(dense[0, 0], abs=1e-15)
    assert off == pytest.approx(dense[0, 1], abs=1e-15)


def test_green_diagonal_resolvent_bound():
    for seed in range(5):
        root_values, _, omega_root, _ = sweep(2, 0.3, 0.7 + 0.2j, 8, seed)
        diag = oracles.green_diagonal(root_values, omega_root, 0.3, 0.7 + 0.2j)
        assert 0 < diag.imag <= 1.0 / 0.2 + 1e-12


def test_depth3_path_matches_dense():
    q, depth, eps, seed = 2, 3, 0.3, 17
    gamma = 0.7 + 0.2j
    h, _, offsets = oracles.materialized_tree_operator(q, depth, q + 1, eps, SPEC, seed)
    dense = np.linalg.inv(h - gamma * np.eye(h.shape[0]))
    root_values, spine, omega_root, _ = sweep(q, eps, gamma, depth, seed, spine_len=depth)
    diag = oracles.green_diagonal(root_values, omega_root, eps, gamma)
    for r in range(1, depth + 1):
        value = diag
        for z in spine[:r]:
            value *= z
        node = offsets[r]  # first-ray node at distance r
        assert abs(value - dense[0, node]) < 1e-10


# ----------------------------------------------------------------------
# Monte-Carlo distance profiles
# ----------------------------------------------------------------------


def test_mc_free_values_exact():
    ray = tg.distance_ratio_profile(
        2, SPEC, 0.0, 0.0, 1, [0.0], samples=16, seed=1, depth=60, leaf_mode="free"
    )
    assert ray.means[0, 0] == pytest.approx(math.sqrt(2) / 3, abs=1e-14)
    assert ray.means[1, 0] == pytest.approx(0.0, abs=1e-14)
    assert ray.stderrs[:, 0].tolist() == [0.0, 0.0]


def test_mc_stderr_scale():
    ray = tg.distance_ratio_profile(2, SPEC, 0.2, 0.05, 0, [0.5], samples=10000, seed=4, depth=10)
    assert ray.stderrs[0, 0] < 0.01 * ray.means[0, 0]


def test_mc_depth_doubling_stabilizes():
    # free-seeded sweeps: doubling the depth moves the estimate by < 5e-3
    for eta in (0.05, 0.1, 0.2):
        a = tg.distance_ratio_profile(2, SPEC, 0.2, eta, 1, [0.5], 1500, 9, 8)
        b = tg.distance_ratio_profile(2, SPEC, 0.2, eta, 1, [0.5], 1500, 9, 16)
        assert abs(a.means[0, 0] - b.means[0, 0]) < 5e-3
        assert abs(a.means[1, 0] - b.means[1, 0]) < 5e-3


def test_mc_distance_only_dependence():
    gamma = 0.5 + 0.2j
    means, stderrs = {}, {}
    for ray_branch in (0, 2):
        root, spine, _ = _kernels.tree_batch(
            2, 10, 3, 0.25, [gamma], [tg.free_forward_green_complex(gamma, 2)], SPEC.kind,
            SPEC.support_bound, _rng.derive_key(7, "mc-ray"), 3000, 2, ray_branch,
            [1.0 / gamma.imag], [tg.imag_floor(2, 0.25, SPEC.support_bound, 0.5, 0.2)],
        )
        means[ray_branch], stderrs[ray_branch] = (
            a[0] for a in tg._mean_stderr(tg._ray_green_im(root, spine)))
    for r in (1, 2):
        gap = abs(means[0][r] - means[2][r])
        sig = math.hypot(stderrs[0][r], stderrs[2][r])
        assert gap <= 3 * sig


def test_mc_determinism_and_guards():
    a = tg.distance_ratio_profile(2, SPEC, 0.2, 0.2, 1, [0.5], 200, 5, 8)
    b = tg.distance_ratio_profile(2, SPEC, 0.2, 0.2, 1, [0.5], 200, 5, 8)
    assert np.array_equal(a.means, b.means)
    with pytest.raises(ConfigError):
        tg.distance_ratio_profile(2, SPEC, 0.2, 0.2, r_max=5, lambdas=[0.5], samples=10, seed=1,
                                  depth=5)
    with pytest.raises(BudgetError):
        # 100000 balls of depth 20 exceed DEFAULT_MC_WORK_CAP = 2**33 nodes
        tg.distance_ratio_profile(2, SPEC, 0.2, 0.2, 1, [0.5], 100000, 1, 20)


def test_profile_roots_keep_the_cavity_bounds():
    # the acceptance profile grid (q=2, eps=0.2, eta=0.2, depth 12, free
    # leaves): every (q+1)-branch root, -G(o, o), is a cavity value of the
    # ball and keeps Im z < 0, |z| <= 1/eta and |Im z| >= eta/c_tilde**2,
    # and the profile counts any that does not
    q, eps, eta = 2, 0.2, 0.2
    gammas = [complex(lam, eta) for lam in np.linspace(-2.4, 2.4, 97)]
    leaves, caps, floors = tg._grid_bounds(q, SPEC, eps, gammas, "free")
    root, _, _ = _kernels.tree_batch(
        q, 12, q + 1, eps, gammas, leaves, SPEC.kind, SPEC.support_bound,
        _rng.derive_key(911, "profile"), 64, 0, 0, caps, floors,
    )
    slack = _kernels._SLACK
    assert (root.imag < 0.0).all()
    assert (np.abs(root) <= np.array(caps)[:, None] * (1.0 + slack)).all()
    assert (-root.imag >= np.array(floors)[:, None] * (1.0 - slack)).all()


def test_profile_counts_a_bad_root(monkeypatch):
    # a NaN root, or one past the modulus cap, reaches the profile's counters
    sweep = _kernels.tree_batch

    def bad_roots(*args):
        root, spine, viol = sweep(*args)
        root[0, 0] = complex(np.nan, np.nan)
        root[0, 1] = -2j / 0.2
        return root, spine, viol

    monkeypatch.setattr(_kernels, "tree_batch", bad_roots)
    profile = tg.distance_ratio_profile(2, SPEC, 0.2, 0.2, 1, [0.5], samples=8, seed=3, depth=4)
    monkeypatch.undo()
    clean = tg.distance_ratio_profile(2, SPEC, 0.2, 0.2, 1, [0.5], samples=8, seed=3, depth=4)
    assert clean.violations[:3].tolist() == [0, 0, 0]
    assert (profile.violations - clean.violations).tolist() == [1, 1, 0, 0]


def test_profile_grid_points_share_balls():
    # one key for the grid: each lambda equals a one-point profile of the
    # same seed bit for bit, though the floors differ with |lam|
    lams = [-1.5, 0.25, 0.8]
    grid = tg.distance_ratio_profile(2, SPEC, 0.3, 0.15, 2, lams, samples=40, seed=6, depth=7)
    violations = np.zeros(4, dtype=np.int64)
    for i, lam in enumerate(lams):
        single = tg.distance_ratio_profile(2, SPEC, 0.3, 0.15, 2, [lam], samples=40, seed=6, depth=7)
        assert grid.lambdas[i] == lam
        assert grid.means[:, i].tobytes() == single.means[:, 0].tobytes()
        assert grid.stderrs[:, i].tobytes() == single.stderrs[:, 0].tobytes()
        assert grid.ratios[:, i].tobytes() == single.ratios[:, 0].tobytes()
        violations += single.violations
    assert np.array_equal(grid.violations, violations)


# ----------------------------------------------------------------------
# cavity moment tables
# ----------------------------------------------------------------------


def test_moments_free_exact_zero_variance():
    table = tg.green_condition_moments(
        2, SPEC, 0.0, [0.0, 1.0], [0.0], [1.0], samples=32, seed=2, depth=12, leaf_mode="free"
    )
    for point, lam in zip(table.points, [0.0, 1.0]):
        want = math.sqrt(4 * 2 - lam * lam) / (2 * 2)
        assert point.abs_mean == want  # exact: closed form, zero variance
        assert point.abs_stderr == 0.0
        assert point.square_mean == want * want


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("leaf_mode,eta", [("free", 0.0), ("free", 0.05), ("free", 0.4),
                                           ("bare", 0.05), ("bare", 0.4)])
def test_zero_disorder_matches_scalar_route(q, leaf_mode, eta):
    # eps = 0 runs the chain through the same roots, checks and reductions as
    # the sweeps; the scalar route gives the same means (== also matches an
    # exact zero of the other sign: Im G(o, y_r) at lambda = 0, odd r) and
    # the same moments, the inverse ones within 1 ulp (numpy ** against
    # CPython's); the counters count the depth + 1 values of each chain
    lams, s_list, depth, r_max = [-1.3, 0.0, 0.4, 1.1], (0.5, 1.0, 2.0), 14, 3
    profile = tg.distance_ratio_profile(q, SPEC, 0.0, eta, r_max, lams, 8, 5, depth, leaf_mode)
    means = oracles.zero_disorder_profile(q, eta, r_max, lams, depth, leaf_mode)
    assert np.array_equal(profile.means, means)
    assert np.array_equal(profile.ratios, means / means[:1])
    assert not profile.stderrs.any()
    assert profile.violations.tolist() == [0, 0, 0, len(lams) * (depth + 1)]
    table = tg.green_condition_moments(q, SPEC, 0.0, lams, [eta], s_list, 8, 5, depth, leaf_mode)
    want = oracles.zero_disorder_moments(q, SPEC, lams, [eta], s_list, depth, leaf_mode)
    for point, (abs_mean, square_mean, inverse) in zip(table.points, want, strict=True):
        assert (point.abs_mean, point.square_mean) == (abs_mean, square_mean)
        assert point.abs_stderr == point.square_stderr == 0.0
        for s in s_list:
            est, err = point.inverse[s]
            assert err == 0.0 and abs(est - inverse[s]) <= np.spacing(inverse[s])
    assert table.total_violations().tolist() == [0, 0, 0, len(lams) * (depth + 1)]


def test_moments_budget_guard_before_any_sweep(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the moment table swept a ball before its budget guard")

    monkeypatch.setattr(_kernels, "tree_batch", unreachable)
    # 20 points x 256 balls of 8.4e6 nodes (q=2, depth 22) exceed DEFAULT_MC_WORK_CAP
    lams, etas = [-1.0, -0.5, 0.0, 0.5, 1.0], [0.05, 0.1, 0.2, 0.4]
    with pytest.raises(BudgetError, match="MC budget"):
        tg.green_condition_moments(2, SPEC, 0.2, lams, etas, [1.0], samples=256, seed=1, depth=22)
    for eps in (0.2, 0.0):
        with pytest.raises(ConfigError, match="at least one sample"):
            tg.green_condition_moments(2, SPEC, eps, lams, etas, [1.0], samples=0, seed=1, depth=4)
        for depth in (0, -3):
            with pytest.raises(ConfigError, match="depth must be at least 1"):
                tg.green_condition_moments(2, SPEC, eps, lams, etas, [1.0], samples=4, seed=1,
                                           depth=depth)


def test_profile_budget_guard_before_any_leaf_or_floor(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the profile built a leaf or a floor before its budget guard")

    monkeypatch.setattr(tg, "_leaf_value", unreachable)
    monkeypatch.setattr(tg, "imag_floor", unreachable)
    # 2001 lambdas x 256 balls of 1.26e7 nodes (q=2, depth 22) exceed DEFAULT_MC_WORK_CAP
    lams = np.linspace(-2.0, 2.0, 2001)
    with pytest.raises(BudgetError, match="MC budget"):
        tg.distance_ratio_profile(2, SPEC, 0.2, 0.2, 1, lams, 256, 1, 22)
    # eta is checked before the budget
    with pytest.raises(ConfigError, match="eta must be strictly positive"):
        tg.distance_ratio_profile(2, SPEC, 0.2, 0.0, 1, lams, 256, 1, 22)


def test_moments_jensen_consistency():
    table = tg.green_condition_moments(
        2, SPEC, 0.3, [-0.5, 0.0, 0.5], [0.1, 0.3], [1.0], samples=300, seed=8, depth=10
    )
    for p in table.points:
        inv, inv_err = p.inverse[1.0]
        assert inv >= 1.0 / p.abs_mean - 3 * (inv_err + p.abs_stderr)


def test_moments_deterministic_floor():
    table = tg.green_condition_moments(
        2, SPEC, 0.3, [-1.0, 0.0, 1.0], [0.05, 0.2], [1.0, 2.0], samples=500, seed=8, depth=10
    )
    viol = table.total_violations()
    # every node of every ball is checked, the root included
    assert viol[3] == 6 * 500 * _kernels.tree_node_count(2, 10, 2)
    assert viol[:3].tolist() == [0, 0, 0]
    for p in table.points:
        assert p.abs_mean > 0 and np.isfinite(p.abs_mean)
        for s, (est, err) in p.inverse.items():
            assert np.isfinite(est) and np.isfinite(err)


def test_moments_grid_points_share_balls():
    # one key for the table: each point equals a one-point table of the same
    # seed (each floor is taken at its own |lam|), counters included
    lams, etas = [-0.5, 1.0], [0.1, 0.3]
    table = tg.green_condition_moments(2, SPEC, 0.3, lams, etas, [1.0], samples=40, seed=6, depth=7)
    points = iter(table.points)
    for lam in lams:
        for eta in etas:
            single = tg.green_condition_moments(2, SPEC, 0.3, [lam], [eta], [1.0],
                                                samples=40, seed=6, depth=7).points[0]
            point = next(points)
            assert (point.lam, point.eta) == (lam, eta)
            assert point.abs_mean == single.abs_mean and point.abs_stderr == single.abs_stderr
            assert point.square_mean == single.square_mean and point.inverse == single.inverse
            assert np.array_equal(point.violations, single.violations)


def test_moments_csv_rows():
    table = tg.green_condition_moments(
        2, SPEC, 0.2, [0.0], [0.1], [1.0, 2.0], samples=50, seed=3, depth=8
    )
    rows = table.csv_rows()
    kinds = [r[5] for r in rows]
    assert kinds == ["abs_mean", "square_mean", "inverse_moment", "inverse_moment"]
    assert rows[0][2] == "" and rows[2][2] == 1.0


# ----------------------------------------------------------------------
# lifted Green function
# ----------------------------------------------------------------------


def _cover_ball_oracle(g, pot, gamma, radius, x):
    """Materialized non-backtracking-walk ball; independent dense oracle."""
    nodes = [(x, -1)]
    levels = [[0]]
    for _ in range(radius):
        new = []
        for ni in levels[-1]:
            v, pi = nodes[ni]
            pv = nodes[pi][0] if pi >= 0 else -1
            for w in g.neighbors[v]:
                if w == pv:
                    continue
                nodes.append((int(w), ni))
                new.append(len(nodes) - 1)
        levels.append(new)
    n = len(nodes)
    h = np.zeros((n, n))
    for i, (v, pi) in enumerate(nodes):
        h[i, i] = pot.epsilon * pot.omega[v]
        if pi >= 0:
            h[i, pi] = 1.0
            h[pi, i] = 1.0
    return np.linalg.inv(h - gamma * np.eye(n)), nodes


@pytest.mark.parametrize("n,seed,depth", [(4, 1, 2), (4, 1, 4), (20, 3, 3), (20, 3, 4)])
def test_lifted_green_matches_cover_ball(n, seed, depth):
    g = graphs.generate_random_regular(n, 2, seed=seed)
    pot = anderson.sample_potential(n, SPEC, 0.3, seed=5)
    gamma = 0.4 + 0.25j
    a = int(g.neighbors[0][0])
    b = int(next(w for w in g.neighbors[a] if w != 0))
    lifted = tg.lifted_green(g, pot, gamma, depth, tg.pair_lifts(g, [[0], [0, a], [0, a, b]]))
    dense, nodes = _cover_ball_oracle(g, pot, gamma, depth, 0)
    na = next(i for i, (v, pi) in enumerate(nodes) if pi == 0 and v == a)
    nb = next(i for i, (v, pi) in enumerate(nodes) if pi == na and v == b)
    assert abs(lifted.diagonals[0] - dense[0, 0]) < 1e-10
    assert abs(lifted.pair_values[1] - dense[0, na]) < 1e-10
    assert abs(lifted.pair_values[2] - dense[0, nb]) < 1e-10
    assert lifted.pair_values[0] == lifted.diagonals[0]  # distance-0 pair


def test_lifted_green_zero_disorder_uniform():
    # bare-init messages contract at |q zeta^2| ~ 0.932 per round at eta=0.1,
    # so 400 rounds push the truncation error below 1e-12
    g = graphs.generate_random_regular(12, 2, seed=2)
    pot = anderson.sample_potential(12, SPEC, 0.0, seed=1)
    lifted = tg.lifted_green(g, pot, 0.0 + 0.1j, 400, tg.pair_lifts(g, [[0]]))
    free_diag = oracles.green_diagonal(
        [tg.free_forward_green_complex(0.1j, 2)] * 3, 0.0, 0.0, 0.1j
    )
    assert np.ptp(np.abs(lifted.diagonals)) == 0.0  # vertex-independent
    assert abs(lifted.diagonals[0] - free_diag) < 1e-10


@pytest.mark.parametrize("depth", [1, 2])
def test_lifted_green_diagonal_only_matches_pairwise_oracle(depth):
    # a lift table without steps reads only the last round, the first one
    # the loop records
    g = graphs.generate_random_regular(20, 2, seed=3)
    pot = anderson.sample_potential(20, SPEC, 0.3, seed=5)
    gamma = 0.4 + 0.25j
    lifts = tg.pair_lifts(g, [[0], [7], [19]])
    assert lifts.steps.shape == (3, 0)
    got = tg.lifted_green(g, pot, gamma, depth, lifts)
    diag, pairs, viol = oracles.lifted_green_pairwise(g, pot, gamma, depth, [0, 7, 19], [0, 7, 19])
    assert np.array_equal(got.diagonals, diag)
    assert np.array_equal(got.pair_values, pairs)
    assert np.array_equal(got.violations, viol)
    assert viol[3] == depth * g.n * (g.q + 1)


def test_lifted_green_rejects_backtracking():
    g = graphs.generate_random_regular(10, 2, seed=4)
    a = int(g.neighbors[0][0])
    with pytest.raises(ConfigError, match="backtrack"):
        tg.lifted_green(
            g, anderson.sample_potential(10, SPEC, 0.1, seed=1),
            0.2j, 5, tg.pair_lifts(g, [[0, a, 0]]),
        )


def test_pair_lifts_rejects_bad_paths():
    g = graphs.generate_random_regular(10, 2, seed=4)
    a = int(g.neighbors[0][0])
    far = next(v for v in range(1, g.n) if v not in g.neighbors[0])
    with pytest.raises(ConfigError, match=rf"path step \(0, {far}\) is not an edge"):
        tg.pair_lifts(g, [[0], [0, a], [0, far]])
    with pytest.raises(ConfigError, match="empty pair path"):
        tg.pair_lifts(g, [[0], []])
    with pytest.raises(ConfigError, match="out of range"):
        tg.pair_lifts(g, [[0, a], [g.n]])
    # the first bad path is reported, at its first bad step
    b = int(next(w for w in g.neighbors[a] if w != 0))
    with pytest.raises(ConfigError, match=rf"path \[0, {a}, 0\] backtracks at step 0"):
        tg.pair_lifts(g, [[0, a, b], [0, a, 0], [a, 0, a]])


def test_pair_lifts_table():
    g = graphs.generate_random_regular(10, 2, seed=4)
    a = int(g.neighbors[0][1])
    b = int(next(w for w in g.neighbors[a] if w != 0))
    lifts = tg.pair_lifts(g, [[3], [0, a, b], [0, a]])
    # u -> neighbors[u, j] has id j*n + u
    jb = int(np.searchsorted(g.neighbors[a], b))
    assert lifts.starts.tolist() == [3, 0, 0]
    assert lifts.steps.tolist() == [[-1, -1], [10, jb * 10 + a], [10, -1]]
    assert tg.pair_lifts(g, [[1], [2]]).steps.shape == (2, 0)


def test_lifted_green_rejects_depth_shorter_than_a_path():
    g = graphs.generate_random_regular(10, 2, seed=4)
    a = int(g.neighbors[0][0])
    b = int(next(w for w in g.neighbors[a] if w != 0))
    pot = anderson.sample_potential(10, SPEC, 0.1, seed=1)
    lifts = tg.pair_lifts(g, [[0], [0, a, b]])
    with pytest.raises(ConfigError, match=r"cover depth 1 shorter than a requested geodesic \(2 steps\)"):
        tg.lifted_green(g, pot, 0.2j, 1, lifts)
    assert tg.lifted_green(g, pot, 0.2j, 2, lifts).pair_values.shape == (2,)


def test_lifted_green_bound_checks():
    g = graphs.generate_random_regular(30, 2, seed=9)
    pot = anderson.sample_potential(30, SPEC, 0.4, seed=3)
    lifted = tg.lifted_green(g, pot, 0.1 + 0.15j, 30, tg.pair_lifts(g, [[0]]))
    assert lifted.violations[:3].tolist() == [0, 0, 0]
    assert lifted.violations[3] > 0


def test_suggest_depth_caps():
    assert tg.suggest_depth(2, 0.4) == 20
    deep = tg.suggest_depth(2, 0.001)
    assert _kernels.tree_node_count(2, deep + 1, 3) > tg.DEFAULT_WORK_CAP or deep == tg.MAX_DEPTH
