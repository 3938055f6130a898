import hashlib
import itertools
import json
import math
from collections import deque

import numpy as np
import oracles
import pytest
import scipy.linalg
import scipy.sparse.linalg

from qelab import _rng, graphs, qe
from qelab.errors import ConfigError, GenerationError, InvariantError

K33_EDGES = [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]


def bfs_oracle(neighbors, x, y):
    """Independent BFS used as the distance oracle."""
    n = len(neighbors)
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist.get(y)


def ball_is_tree_oracle(neighbors, x, radius):
    """Induced ball on vertices within `radius`: tree iff edges = vertices - 1."""
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    inside = set(dist)
    edges = sum(1 for u in inside for v in neighbors[u] if v in inside and u < v)
    return edges == len(inside) - 1


def injectivity_oracle(neighbors, x):
    """Per-vertex BFS: one less than the least max-depth of a non-tree edge."""
    depth = {x: 0}
    parent = {x: x}
    best = None
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if best is not None and depth[u] >= best:
            break
        for v in neighbors[u]:
            if v == parent[u]:
                continue
            if v in depth:
                cand = max(depth[u], depth[v])
                best = cand if best is None else min(best, cand)
            else:
                depth[v] = depth[u] + 1
                parent[v] = u
                queue.append(v)
    return max(depth.values()) if best is None else best - 1


def girth_oracle(neighbors):
    """Shortest d(u) + d(v) + 1 over non-tree edges of every per-vertex BFS."""
    best = len(neighbors) + 1
    for x in range(len(neighbors)):
        depth = {x: 0}
        parent = {x: x}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v == parent[u]:
                    continue
                if v in depth:
                    best = min(best, depth[u] + depth[v] + 1)
                else:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    queue.append(v)
    return best


TWO_K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]


def test_k4_is_forced():
    g = graphs.generate_random_regular(4, 2, seed=99)
    assert sorted(map(tuple, g.edges.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]


def test_generation_postconditions_n1000():
    g = graphs.generate_random_regular(1000, 2, seed=1)
    assert g.neighbors.shape == (1000, 3)
    for x in range(g.n):
        row = g.neighbors[x]
        assert len(set(row.tolist())) == 3
        assert x not in row
        for v in row:
            assert x in g.neighbors[v]


def test_generation_reproducible():
    a = graphs.generate_random_regular(200, 3, seed=5)
    b = graphs.generate_random_regular(200, 3, seed=5)
    assert np.array_equal(a.edges, b.edges)
    c = graphs.generate_random_regular(200, 3, seed=6)
    assert not np.array_equal(a.edges, c.edges)


def test_generation_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        graphs.generate_random_regular(5, 2, seed=1)  # n*(q+1) odd
    with pytest.raises(ConfigError):
        graphs.generate_random_regular(3, 2, seed=1)  # n < q+2
    with pytest.raises(GenerationError) as err:
        graphs.generate_random_regular(4, 2, seed=1, max_attempts=0)
    assert err.value.attempts == 0


def test_generation_budget_grows_with_degree():
    # at q=4 a pairing is simple with probability about e^-6; this seed needs
    # 1034 attempts, beyond the old fixed budget of 1000
    g = graphs.generate_random_regular(100, 4, seed=33)
    assert g.neighbors.shape == (100, 5)
    with pytest.raises(GenerationError):
        graphs.generate_random_regular(100, 4, seed=33, max_attempts=1000)


def assert_simple_regular(g):
    """Edges listed once as sorted (u < v) pairs, no repeat, every degree q+1."""
    u, v = g.edges.T
    assert np.all(u < v) and np.all(v < g.n)
    assert len(set(map(tuple, g.edges.tolist()))) == len(g.edges)
    assert np.all(np.bincount(g.edges.reshape(-1), minlength=g.n) == g.q + 1)
    assert np.array_equal(g.neighbors, neighbors_oracle(g.n, g.edges.tolist()))


# (q, sizes, seeds per size): a pairing is simple with probability about
# exp(-((q+1)^2 - 1)/4), so q = 5 (thousands of attempts a graph) gets fewer
GENERATION_CASES = [(2, (4, 6, 40), 25), (3, (5, 12, 40), 25), (4, (12, 40), 25), (5, (40,), 5)]


@pytest.mark.parametrize("q, sizes, seeds", GENERATION_CASES,
                         ids=[f"q{c[0]}" for c in GENERATION_CASES])
def test_generation_simple_regular_and_deterministic(q, sizes, seeds):
    for n in sizes:
        drawn = [graphs.generate_random_regular(n, q, seed) for seed in range(seeds)]
        for g in drawn:
            assert_simple_regular(g)
        assert np.array_equal(drawn[0].edges, graphs.generate_random_regular(n, q, 0).edges)


def test_tied_stub_keys_take_the_next_attempt(monkeypatch):
    # seed 5 is simple at its first attempt; tying two stub keys there must
    # make the generator draw attempt 1.  The tie gives the stub at sorted
    # position 3 the key at position 1, so an attempt taken despite it would
    # pair that stub twice and drop another
    n, q, seed = 8, 2, 5
    base = _rng.derive_key(seed, "pairing", n, q)
    real, calls = graphs.hash_u64_vec, []

    def hashed(key, ctrs, out=None, tmp=None):
        calls.append(key)
        h = real(key, ctrs, out, tmp)
        if tie and key == _rng.derive_key(base, 0):
            order = np.argsort(h)
            h[order[3]] = h[order[1]]
        return h

    monkeypatch.setattr(graphs, "hash_u64_vec", hashed)
    tie = False
    untied = graphs.generate_random_regular(n, q, seed)
    assert calls == [_rng.derive_key(base, 0)]
    calls.clear()
    tie = True
    g = graphs.generate_random_regular(n, q, seed)
    assert calls[:2] == [_rng.derive_key(base, 0), _rng.derive_key(base, 1)]
    assert_simple_regular(g)
    assert not np.array_equal(g.edges, untied.edges)


def test_keys_that_agree_only_in_their_high_bits_do_not_tie():
    # E = 3e6 stubs have 22-bit ids, and about one pair of stub keys per
    # attempt agrees in its top 64 - 22 bits.  Only keys equal in all 64 bits
    # tie, so the generator accepts this seed's simple attempt 2, whose keys
    # hold two such pairs; a sort of 42-bit keys packed above the stub ids
    # refused it, and past E = 2^23 refused nearly every attempt
    n, q, seed = 1_000_000, 2, 0
    edges, attempt = oracles.pairing_argsort(n, q, seed)
    key = _rng.derive_key(_rng.derive_key(seed, "pairing", n, q), attempt)
    high = np.sort(_rng.hash_u64_vec(key, np.arange(n * (q + 1), dtype=np.uint64)) >> np.uint64(22))
    assert attempt == 2 and np.sum(high[1:] == high[:-1]) == 2
    assert np.array_equal(graphs.generate_random_regular(n, q, seed).edges, edges)


def test_pairing_is_uniform_on_labeled_cubic_graphs_on_six_vertices():
    # the 70 labeled 3-regular graphs on 6 vertices: 10 copies of K3,3
    # (bipartite, no triangle) and 60 of the prism (two triangles); a simple
    # pairing is uniform over them, so K3,3 comes up 1/7 of the time
    seeds = 2800
    counts = {}
    k33 = 0
    for seed in range(seeds):
        g = graphs.generate_random_regular(6, 2, seed)
        key = tuple(map(tuple, g.edges.tolist()))
        counts[key] = counts.get(key, 0) + 1
        adj = {tuple(e) for e in key}
        k33 += not any({(a, b), (a, c), (b, c)} <= adj
                       for a, b, c in itertools.combinations(range(6), 3))
    assert len(counts) == 70
    p = 1 / 7
    assert abs(k33 - seeds * p) <= 4 * math.sqrt(seeds * p * (1 - p))
    # every labeled graph about equally often: chi-square of 69 degrees of
    # freedom within 4 of its standard deviations
    expected = seeds / 70
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 <= 69 + 4 * math.sqrt(2 * 69)


def test_seed_to_graph_map_is_pinned():
    # recorded once the pairings came from the counter streams
    g = graphs.generate_random_regular(20, 2, seed=3)
    digest = hashlib.sha256(g.edges.tobytes()).hexdigest()
    assert digest == "f823176b18e8f7d0df7c8dbf9c647cbb6249abb800cfdbf25ef5e885ac3ce551"


def neighbors_oracle(n, edges):
    """Sorted adjacency rows built one edge at a time."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return np.array([sorted(row) for row in adj], dtype=np.int64)


@pytest.mark.parametrize("n,q,seed", [(1000, 2, 4), (300, 3, 11), (10000, 2, 501)])
def test_neighbor_table_matches_adjacency_loop(n, q, seed):
    g = graphs.generate_random_regular(n, q, seed)
    assert g.neighbors.dtype == np.int64 and g.neighbors.flags.c_contiguous
    assert np.array_equal(g.neighbors, neighbors_oracle(n, g.edges.tolist()))


def test_graph_from_edges_error_messages():
    # K4 without the edge (2, 3): vertex 2 is the first vertex of degree 2
    with pytest.raises(ConfigError, match=r"^vertex 2 has degree 2, expected 3$"):
        oracles.graph_from_edges(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    # a self-loop lists its vertex twice: with the right degree it is a
    # repeated neighbor, and the first failing vertex is reported although
    # vertices 2 and 3 have degree 2
    with pytest.raises(ConfigError, match=r"^vertex 0 carries a repeated neighbor$"):
        oracles.graph_from_edges(4, 2, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3)])
    # the degree check comes first for the same vertex
    with pytest.raises(ConfigError, match=r"^vertex 1 has degree 4, expected 3$"):
        oracles.graph_from_edges(4, 2, [(1, 1), (0, 1), (1, 2), (0, 2), (0, 3), (2, 3)])


# (n, q, seed): both q = 2 sizes of the reference grid, spectra_large's q = 3
# graph, lifted_curve's N = 10000 graph, and two higher degrees
GRAPH_TABLE_CASES = [(250, 2, 101), (1000, 2, 101), (1200, 3, 301), (10000, 2, 501),
                     (64, 4, 7), (30, 5, 3)]


@pytest.mark.parametrize("n,q,seed", GRAPH_TABLE_CASES)
def test_graph_tables_match_sort_oracles(n, q, seed):
    # one key sort per table against the lexsort / stable-argsort /
    # searchsorted constructions: the same arrays, dtypes included
    g = graphs.generate_random_regular(n, q, seed)
    edges, neighbors = oracles.random_regular_argsort(n, q, seed)
    kernel, want = qe.edge_kernel(g), oracles.edge_kernel_lexsort(g)
    rev, want_rev = g.reverse_edge_index(), oracles.reverse_edges_searchsorted(g)
    for got, ref in ((g.edges, edges), (g.neighbors, neighbors), (rev, want_rev),
                     (kernel.rows, want.rows), (kernel.cols, want.cols),
                     (kernel.values, want.values), (kernel.distances, want.distances)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_neighbor_table_errors_match_lexsort_oracle():
    # the first bad vertex and its message, on edge lists that reach the
    # table without graph_from_edges' repeated-edge check
    g = graphs.generate_random_regular(64, 4, seed=7)
    moved = g.edges.copy()
    moved[10, 1] = (moved[10, 1] + 1) % 64  # one degree up, one down (or a repeat)
    doubled = np.concatenate([g.edges[:-1], g.edges[:1]])  # a repeated edge
    looped = g.edges.copy()
    looped[20] = [looped[20, 0], looped[20, 0]]  # a self-loop
    for edges in (moved, doubled, looped, g.edges[:-1]):
        with pytest.raises(ConfigError) as want:
            oracles.neighbors_lexsort(64, 4, edges)
        with pytest.raises(ConfigError, match=f"^{want.value}$"):
            graphs._neighbors_from_edges(64, 4, edges)


def test_distance_and_geodesic_examples():
    k4 = graphs.generate_random_regular(4, 2, seed=1)
    assert graphs.distance_and_geodesic(k4, 0, 0) == (0, [0])
    assert graphs.distance_and_geodesic(k4, 0, 3) == (1, [0, 3])
    g = graphs.generate_random_regular(64, 2, seed=7)
    d, path = graphs.distance_and_geodesic(g, 0, 1)
    assert d == bfs_oracle(g.neighbors.tolist(), 0, 1)
    assert path[0] == 0 and path[-1] == 1 and len(path) == d + 1


def test_distance_symmetry_and_nonbacktracking():
    g = graphs.generate_random_regular(128, 2, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y = rng.integers(0, g.n, size=2)
        dxy, path = graphs.distance_and_geodesic(g, int(x), int(y))
        dyx, _ = graphs.distance_and_geodesic(g, int(y), int(x))
        assert dxy == dyx
        for k in range(len(path) - 2):
            assert path[k] != path[k + 2]
        for k in range(len(path) - 1):
            assert path[k + 1] in g.neighbors[path[k]]


def test_unreachable_pair_sentinel():
    two = oracles.graph_from_edges(
        8, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
               (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    )
    d, path = graphs.distance_and_geodesic(two, 0, 5)
    assert d == graphs.UNREACHABLE and path == []


def test_injectivity_k4_all_zero():
    k4 = graphs.generate_random_regular(4, 2, seed=1)
    prof = graphs.injectivity_radius(k4)
    assert prof.radii.tolist() == [0, 0, 0, 0]
    assert prof.small_radius_fraction(1) == 1.0


def test_injectivity_against_ball_oracle():
    g = graphs.generate_random_regular(64, 2, seed=7)
    prof = graphs.injectivity_radius(g)
    nbrs = g.neighbors.tolist()
    for x in range(0, 64, 7):
        rho = int(prof.radii[x])
        assert ball_is_tree_oracle(nbrs, x, rho)
        assert not ball_is_tree_oracle(nbrs, x, rho + 1)


def test_injectivity_reference_n1000():
    # the reference values were recorded on the Philox-pairing graph
    g = oracles.random_regular_philox(1000, 2, seed=1)
    prof = graphs.injectivity_radius(g)
    frac_ge_3 = 1.0 - prof.small_radius_fraction(3)
    assert frac_ge_3 > 0.8
    assert frac_ge_3 == pytest.approx(0.823)  # recorded reference value
    assert prof.small_radius_fraction(2) == pytest.approx(0.05)
    values, counts = np.unique(prof.radii, return_counts=True)
    hist = dict(zip(values.tolist(), counts.tolist()))
    assert sum(hist.values()) == 1000
    assert hist == {1: 50, 2: 127, 3: 430, 4: 358, 5: 35}
    assert oracles.girth(g) == 4


@pytest.mark.parametrize("n,q,seed", [(64, 2, 7), (500, 2, 11), (300, 3, 5), (120, 4, 2)])
def test_injectivity_and_girth_match_per_vertex_bfs(n, q, seed):
    g = graphs.generate_random_regular(n, q, seed)
    nbrs = g.neighbors.tolist()
    prof = graphs.injectivity_radius(g)
    assert prof.radii.dtype == np.int64
    assert prof.radii.tolist() == [injectivity_oracle(nbrs, x) for x in range(n)]
    assert oracles.girth(g) == girth_oracle(nbrs)


def test_injectivity_and_girth_small_graphs():
    for g in (oracles.graph_from_edges(6, 2, K33_EDGES),
              oracles.graph_from_edges(8, 2, TWO_K4_EDGES)):
        nbrs = g.neighbors.tolist()
        assert graphs.injectivity_radius(g).radii.tolist() == [
            injectivity_oracle(nbrs, x) for x in range(g.n)
        ]
        assert oracles.girth(g) == girth_oracle(nbrs)


def test_bst_statistic_trend_over_n():
    # median over 5 seeds of |{rho < 2}|/n should not grow with n
    med = {}
    for n in (100, 400, 1600):
        vals = []
        for seed in range(1, 6):
            prof = graphs.injectivity_radius(graphs.generate_random_regular(n, 2, seed))
            vals.append(prof.small_radius_fraction(2))
        med[n] = float(np.median(vals))
    assert med[400] <= med[100]
    assert med[1600] <= med[400]


def test_exp_check_k4():
    rep = graphs.exp_check(graphs.generate_random_regular(4, 2, seed=1))
    assert rep.second_modulus == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.beta == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.connected


def test_exp_check_bipartite_flagged():
    rep = graphs.exp_check(oracles.graph_from_edges(6, 2, K33_EDGES))
    assert rep.second_modulus == pytest.approx(1.0, abs=1e-10)
    assert abs(rep.beta) < 1e-10
    assert rep.connected


def test_exp_check_disconnected():
    two = oracles.graph_from_edges(8, 2, TWO_K4_EDGES)
    rep = graphs.exp_check(two)
    assert not rep.connected
    assert rep.beta <= 0.0
    assert rep.second_modulus == pytest.approx(1.0, abs=1e-12)


def dense_second_modulus(g):
    a = np.zeros((g.n, g.n))
    a[np.repeat(np.arange(g.n), g.q + 1), g.neighbors.reshape(-1)] = 1.0 / (g.q + 1)
    mu = scipy.linalg.eigvalsh(a)
    return max(abs(mu[0]), abs(mu[-2]))


@pytest.mark.parametrize("n,q,seed", [(250, 2, 101), (1000, 2, 4), (400, 3, 2), (1200, 3, 301)])
def test_exp_check_matches_dense(n, q, seed):
    g = graphs.generate_random_regular(n, q, seed)
    rep = graphs.exp_check(g)
    second = dense_second_modulus(g)
    assert rep.connected
    assert abs(rep.second_modulus - second) <= 1e-10
    assert abs(rep.beta - (1.0 - second)) <= 1e-10


def test_exp_check_deterministic_after_other_arpack_calls():
    g = graphs.generate_random_regular(500, 2, seed=3)

    def bits(rep):
        return np.array([rep.second_modulus, rep.beta]).tobytes(), rep.connected

    first = bits(graphs.exp_check(g))
    assert bits(graphs.exp_check(g)) == first
    m = np.random.default_rng(0).standard_normal((80, 80))
    scipy.sparse.linalg.eigsh(m + m.T, k=3)  # advances ARPACK's internal random state
    assert bits(graphs.exp_check(g)) == first


def test_exp_check_beyond_dense_cap():
    rep = graphs.exp_check(graphs.generate_random_regular(5000, 2, seed=1))
    assert rep.connected
    assert 0.0 < rep.beta < 0.1


def test_exp_check_reference_n1000():
    rep = graphs.exp_check(graphs.generate_random_regular(1000, 2, seed=1))
    assert rep.connected
    assert rep.second_modulus < 0.97


def test_json_roundtrip(tmp_path):
    g = graphs.generate_random_regular(64, 2, seed=7)
    path = tmp_path / "g.json"
    graphs.save_graph_json(g, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "q", "edges"}
    g2 = oracles.load_graph_json(path)
    assert np.array_equal(g.edges, g2.edges)
    assert np.array_equal(g.neighbors, g2.neighbors)


def test_json_loader_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "q": 2, "edges": [[0, 1], [0, 2], [0, 3]]}))
    with pytest.raises(ConfigError):
        oracles.load_graph_json(path)


def test_reverse_edge_index():
    # u -> neighbors[u, j] has id j*n + u, so edge e leaves e % n
    for q, n, seed in ((2, 30, 2), (3, 600, 8), (4, 64, 7)):
        g = graphs.generate_random_regular(n, q, seed=seed)
        rev, targets = g.reverse_edge_index(), g.directed_targets()
        assert rev.dtype == np.int64 and targets.size == n * (q + 1)
        expected = np.empty(targets.size, dtype=np.int64)
        for e in range(targets.size):
            u, v = e % n, targets[e]
            assert targets[e] == g.neighbors[u, e // n]
            assert targets[rev[e]] == u and rev[e] % n == v and rev[rev[e]] == e
            # against the per-edge search
            expected[e] = int(np.searchsorted(g.neighbors[v], u)) * n + v
        assert np.array_equal(rev, expected)


def _assert_matches_arpack(g):
    rep = graphs.exp_check(g)
    want = oracles.exp_check_arpack(g)
    assert abs(rep.second_modulus - want.second_modulus) <= 1e-10
    assert rep.connected == want.connected
    return rep


@pytest.mark.parametrize("q", [2, 3, 4])
def test_exp_check_matches_arpack_where_krylov_breaks_down(q):
    # the complete graph on q+2 vertices: the Krylov space is invariant after two steps
    complete = oracles.graph_from_edges(q + 2, q, itertools.combinations(range(q + 2), 2))
    rep = _assert_matches_arpack(complete)
    assert rep.second_modulus == pytest.approx(1.0 / (q + 1), abs=1e-12)


@pytest.mark.parametrize("n,q,seed", [(250, 2, 101), (1000, 2, 4), (1200, 3, 301), (5000, 2, 1)])
def test_exp_check_matches_arpack(n, q, seed):
    assert _assert_matches_arpack(graphs.generate_random_regular(n, q, seed)).connected


def test_exp_check_matches_arpack_on_disconnected_unions():
    a = graphs.generate_random_regular(300, 2, seed=1)
    b = graphs.generate_random_regular(200, 2, seed=2)
    edges = np.concatenate([a.edges, b.edges + a.n]).tolist()
    for g in (oracles.graph_from_edges(a.n + b.n, 2, edges),
              oracles.graph_from_edges(8, 2, TWO_K4_EDGES)):
        rep = _assert_matches_arpack(g)
        assert not rep.connected
        assert rep.beta <= 0.0


def test_exp_check_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(graphs, "LANCZOS_MAX_STEPS", 5)
    with pytest.raises(InvariantError, match="did not converge in 5 steps"):
        graphs.exp_check(graphs.generate_random_regular(250, 2, seed=101))
