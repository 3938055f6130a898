import math

import numpy as np
import oracles
import pytest
import scipy.integrate

from qelab import anderson, esd, graphs, tree_green as tg
from qelab.errors import ConfigError

SPEC = anderson.PotentialSpec()


def ids_density(q, epsilon, lam, eta, samples, seed, depth=None):
    """(1/pi) E[Im G(o,o; lam + i eta)] and its stderr, one grid point of ``esd.ids_cdf``."""
    if depth is None:
        depth = tg.suggest_depth(q, max(eta, 0.05))
    ray = tg.distance_ratio_profile(q, SPEC, epsilon, eta, 0, [lam], samples, seed, depth)
    return float(ray.means[0, 0]) / math.pi, float(ray.stderrs[0, 0]) / math.pi


def test_kesten_mckay_values():
    assert oracles.kesten_mckay_density(0.0, 2) == pytest.approx(math.sqrt(2) / (3 * math.pi), abs=1e-12)
    assert oracles.kesten_mckay_density(0.0, 2) == pytest.approx(0.15005, abs=1e-5)
    assert oracles.kesten_mckay_density(2 * math.sqrt(2), 2) == 0.0
    assert oracles.kesten_mckay_density(-5.0, 2) == 0.0


def test_kesten_mckay_two_forms_agree():
    for q in (2, 3):
        for lam in np.linspace(-2 * math.sqrt(q) + 1e-9, 2 * math.sqrt(q) - 1e-9, 101):
            a = oracles.kesten_mckay_density(float(lam), q)
            b = oracles.kesten_mckay_density_rational(float(lam), q)
            assert abs(a - b) < 1e-10


def test_kesten_mckay_densities_match_scalar_loop():
    for q in (2, 3):
        edge = 2 * math.sqrt(q)
        # the CDF grid, plus points on and beyond the band edges
        lams = np.concatenate([np.linspace(-edge, edge, 8193), [-5.0, -edge, edge, 5.0]])
        loop = np.array([oracles.kesten_mckay_density(float(x), q) for x in lams])
        assert loop.tobytes() == esd.kesten_mckay_densities(lams, q).tobytes()


def test_cumulative_trapezoid_matches_scalar_loop():
    rng = np.random.default_rng(4)
    x = np.cumsum(rng.uniform(0.1, 1.0, size=200))
    y = rng.normal(size=200)
    want = [0.0]
    for i in range(1, x.size):
        want.append(want[-1] + (x[i] - x[i - 1]) * (y[i] + y[i - 1]) / 2.0)
    assert np.array_equal(esd._cumulative_trapezoid(y, x), np.array(want))


def test_kesten_mckay_normalization():
    for q in (2, 3):
        edge = 2 * math.sqrt(q)
        total, err = scipy.integrate.quad(
            lambda x: oracles.kesten_mckay_density(x, q), -edge, edge, limit=200
        )
        assert abs(total - 1.0) < 1e-6


def test_kesten_mckay_cdf_monotone():
    cdf = esd.kesten_mckay_cdf(2)
    xs = np.linspace(-3.0, 3.0, 50)
    vals = cdf(xs)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= 0)


def test_kesten_mckay_cdf_cached_per_q():
    xs = np.linspace(-4.0, 4.0, 101)
    grid, cum = esd._kesten_mckay_table.__wrapped__(3)  # built afresh, bypassing the cache
    first = esd.kesten_mckay_cdf(3)(xs)
    assert esd._kesten_mckay_table(3) is esd._kesten_mckay_table(3)
    assert np.array_equal(first, np.interp(xs, grid, cum, left=0.0, right=1.0))
    assert np.array_equal(esd.kesten_mckay_cdf(3)(xs), first)


def test_ids_density_free_closed_form():
    density, stderr = ids_density(2, 0.0, 0.0, 0.0, samples=10, seed=1)
    assert density == pytest.approx(oracles.kesten_mckay_density(0.0, 2), abs=1e-14)
    assert stderr == 0.0
    # smoothed at eta > 0 against the closed complex form
    density2, _ = ids_density(2, 0.0, 0.5, 0.1, samples=10, seed=1)
    zeta = tg.free_forward_green_complex(0.5 + 0.1j, 2)
    diag = oracles.green_diagonal([zeta] * 3, 0.0, 0.0, 0.5 + 0.1j)
    assert density2 == pytest.approx(diag.imag / math.pi, abs=1e-10)


def test_ids_cdf_free_grid_closed_form(monkeypatch):
    # at eps = 0 every density of the grid is the closed complex form, and
    # the whole grid comes from one distance profile
    profiles = []
    real = tg.distance_ratio_profile

    def spy(*args, **kwargs):
        profiles.append(real(*args, **kwargs))
        return profiles[-1]

    monkeypatch.setattr(tg, "distance_ratio_profile", spy)
    table = esd.ids_cdf(2, SPEC, 0.0, 0.2, samples=4, seed=1, depth=12)
    (profile,) = profiles
    assert np.array_equal(profile.lambdas, table.grid)
    for lam, density in zip(table.grid, profile.means[0] / math.pi):
        gamma = complex(lam, 0.2)
        zeta = tg.free_forward_green_complex(gamma, 2)
        diag = oracles.green_diagonal([zeta] * 3, 0.0, 0.0, gamma)
        assert abs(density - diag.imag / math.pi) <= 1e-12
    assert table.violations[:3].tolist() == [0, 0, 0]


def test_ids_density_mc_consistency():
    a, a_err = ids_density(2, 0.2, 0.0, 0.1, samples=2500, seed=3, depth=10)
    b, b_err = ids_density(2, 0.2, 0.0, 0.1, samples=10000, seed=4, depth=10)
    assert abs(a - b) <= 3 * math.hypot(a_err, b_err)


def test_ids_density_symmetric_potential():
    a, a_err = ids_density(2, 0.2, 0.8, 0.1, samples=4000, seed=5, depth=10)
    b, b_err = ids_density(2, 0.2, -0.8, 0.1, samples=4000, seed=6, depth=10)
    assert abs(a - b) <= 3 * math.hypot(a_err, b_err)


def test_esd_compare_self_and_k4():
    g = graphs.generate_random_regular(200, 2, seed=1)
    pot = anderson.sample_potential(200, SPEC, 0.0, seed=1)
    sd = anderson.eigendecompose(anderson.assemble(g, pot))
    # self comparison: empirical CDF against itself
    vals = sd.eigenvalues

    def empirical(x):
        return np.searchsorted(vals, x, side="right") / vals.size

    assert esd.esd_compare(sd, empirical) <= 1.0 / vals.size + 1e-12
    # K4 is far from the tree law
    k4 = graphs.generate_random_regular(4, 2, seed=1)
    sd4 = anderson.eigendecompose(
        anderson.assemble(k4, anderson.sample_potential(4, SPEC, 0.0, seed=1))
    )
    assert esd.esd_compare(sd4, esd.kesten_mckay_cdf(2)) > 0.3


def test_tree_return_moments_free():
    assert esd.tree_return_moment(2, 1, 0.0, SPEC) == 0.0
    assert esd.tree_return_moment(2, 2, 0.0, SPEC) == 3.0
    assert esd.tree_return_moment(2, 3, 0.0, SPEC) == 0.0
    assert esd.tree_return_moment(2, 4, 0.0, SPEC) == 15.0
    assert esd.tree_return_moment(3, 2, 0.0, SPEC) == 4.0


def test_tree_return_moments_match_kesten_mckay():
    for k in (2, 4, 6, 8):
        walk = esd.tree_return_moment(2, k, 0.0, SPEC)
        quad, _ = scipy.integrate.quad(
            lambda x: x**k * oracles.kesten_mckay_density(x, 2),
            -2 * math.sqrt(2), 2 * math.sqrt(2), limit=400,
        )
        assert walk == pytest.approx(quad, rel=1e-6)


def test_tree_return_moment_with_disorder():
    got = esd.tree_return_moment(2, 2, 0.2, SPEC)
    assert got == pytest.approx(3 + 0.04 / 3, abs=1e-14)
    # k = 4: A-walks + stay patterns; cross-check against a small dense MC
    h, _, _ = oracles.materialized_tree_operator(2, 2, 3, 0.2, SPEC, seed=1)
    rng = np.random.default_rng(1)
    acc = 0.0
    m = 4000
    for _ in range(m):
        om = rng.uniform(-1, 1, size=h.shape[0])
        hh = h.copy()
        hh[np.arange(len(om)), np.arange(len(om))] = 0.2 * om
        acc += np.linalg.matrix_power(hh, 4)[0, 0]
    mc = acc / m
    exact = esd.tree_return_moment(2, 4, 0.2, SPEC)
    assert abs(exact - mc) < 0.05


def test_tree_return_moment_cap():
    with pytest.raises(ConfigError):
        esd.tree_return_moment(2, 13, 0.0, SPEC)


def test_lln_moment_check_zero_disorder_below_girth():
    g = graphs.generate_random_regular(500, 2, seed=2)
    pot = anderson.sample_potential(500, SPEC, 0.0, seed=2)
    gr = oracles.girth(g)
    rows = esd.lln_moment_check(g, pot, min(gr - 1, 6))
    for row in rows:
        assert row.abs_diff == 0.0


def test_lln_moment_check_k1_k2():
    g = graphs.generate_random_regular(500, 2, seed=3)
    pot = anderson.sample_potential(500, SPEC, 0.2, seed=3)
    rows = esd.lln_moment_check(g, pot, 2)
    k1, k2 = rows
    assert k1.graph_moment == pytest.approx(0.2 * pot.omega.mean(), rel=1e-12)
    assert k1.tree_moment == 0.0
    assert k2.graph_moment == pytest.approx(3 + 0.04 * (pot.omega**2).mean(), rel=1e-12)
    assert k2.tree_moment == pytest.approx(3 + 0.04 / 3, abs=1e-14)
    fluctuation = 0.04 * (pot.omega**2).std() / math.sqrt(500)
    assert k2.abs_diff <= 3 * fluctuation


@pytest.mark.parametrize("q", [2, 3, 4])
def test_graph_return_moment_matches_csr_powers(q):
    g = graphs.generate_random_regular(60, q, seed=5)
    for eps in (0.0, 0.2):
        pot = anderson.sample_potential(g.n, SPEC, eps, seed=3)
        for k in range(1, esd.LLN_K_CAP + 1):
            got = esd.graph_return_moment(g, pot, k)
            want = oracles.graph_return_moment_csr(g, pot, k)
            if eps == 0.0:
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), k
            else:
                assert abs(got - want) <= 1e-12 * abs(want), k


def test_lln_moment_check_beyond_the_dense_cap():
    n = 6000
    assert n > anderson.DIMENSION_CAP
    g = graphs.generate_random_regular(n, 2, seed=1)
    pot = anderson.sample_potential(n, SPEC, 0.2, seed=1)
    rows = esd.lln_moment_check(g, pot, 4)
    assert [row.k for row in rows] == [1, 2, 3, 4]
    assert rows[1].graph_moment == pytest.approx(3 + 0.04 * (pot.omega**2).mean(), rel=1e-12)
    for row in rows:
        want = oracles.graph_return_moment_csr(g, pot, row.k)
        assert abs(row.graph_moment - want) <= 1e-12 * abs(want)
