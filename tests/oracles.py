"""Reference implementations that only the tests call.

Each one is an independent or slower route to a quantity the package
computes: the cavity fixed point by iteration, the scalar reciprocal and
Schur diagonal, materialized tree balls for dense inversion, the full root
row of a ball, the eps = 0 profile and moment table by scalar arithmetic,
the lifted Green function pair by pair, the message rounds edge by edge,
the scalar and the rational Kesten-McKay forms, a node-by-node sweep of
one tree ball and the eps = 0 chain in CPython scalars, scalar potential
draws, the girth, the graph file reader and the edge-list constructor, the
ring kernel by one BFS per vertex, the scipy routes (CSR powers, ARPACK)
that the numpy moment and expansion checks replace, the per-distance
interpolation bound of a distance-only bracket, the gap between the lifted
and the distance-only brackets over a size grid, and the sort-based graph
tables (lexsorted neighbor rows and edge kernel, the argsort pairing test,
the searchsorted reverse edges) that the package builds in fewer passes,
and the Philox pairing that drew the graphs of the recorded test values
before the pairings came from the counter streams.
"""

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from qelab import _kernels, _rng, anderson, esd, graphs, qe, tree_green
from qelab._rng import OMEGA_STRIDE, hash_u64
from qelab.anderson import RESIDUAL_RTOL
from qelab.errors import BudgetError, ConfigError, InvariantError

# ----------------------------------------------------------------------
# cavity values and tree balls
# ----------------------------------------------------------------------


def crecip_scalar(z: complex) -> complex:
    """1/z by ``_kernels.crecip_vec``'s conjugate formula, in CPython scalars."""
    den = z.real * z.real + z.imag * z.imag
    return complex(z.real / den, -z.imag / den)


def green_diagonal(zeta_children, omega_root: float, epsilon: float, gamma) -> complex:
    """Schur diagonal: G(o,o) = 1 / (eps*omega - gamma + sum of cavity values),
    the sum taken from 0j in child order."""
    g = complex(gamma)
    acc = 0.0j
    for z in np.asarray(zeta_children, dtype=np.complex128):
        acc += z
    return crecip_scalar(epsilon * omega_root - g + acc)


def fixed_point_forward_green(gamma, q: int, tol: float = 1e-12, max_iter: int = 1_000_000) -> complex:
    """Iterate z <- 1/(gamma - q z) from the bare value to stationarity."""
    g = complex(gamma)
    if g.imag <= 0:
        raise ConfigError("fixed-point iteration needs eta > 0")
    z = 1.0 / g
    for _ in range(max_iter):
        z_next = 1.0 / (g - q * z)
        if abs(z_next - z) < tol:
            return z_next
        z = z_next
    raise BudgetError(f"cavity fixed point not stationary to {tol} in {max_iter} iterations")


def level_offsets(q, depth, branches):
    """Level-order id of the first node in each level, index 1..depth."""
    off = np.zeros(depth + 1, dtype=np.int64)
    off[1] = 1
    for k in range(1, depth):
        off[k + 1] = off[k] + branches * q ** (k - 1)
    return off


def cavity_sweep(q, depth, branches, eps, gamma, leaf, pot_kind, pot_a, key,
                 spine_len, ray_branch, abs_cap, im_floor):
    """One disorder realization swept over a depth-``depth`` tree ball, node by node.

    CPython scalars throughout, leaves first: node v of level k (level-order
    id) takes z = crecip_scalar(gamma - eps*omega_v - s), s the sum of its q
    children from 0j in child order, and the deepest level takes ``leaf``
    (free leaves) or s = 0j (bare leaves).  Potentials come from the stream
    keyed by ``key``.  Every node of levels 1..depth is checked against the
    bounds on its own (a NaN counts on the sign bound).  The spine records
    the cavity values at depths 1..spine_len along the first ray of branch
    ``ray_branch``.  Returns (branch values at the root, spine, root-site
    potential, violation counters).
    """
    g = complex(gamma)
    n = _kernels.tree_node_count(q, depth, branches)
    omegas = _rng.draw_omega_vec(pot_kind, pot_a, key, np.arange(n, dtype=np.int64)).tolist()
    cap_edge = abs_cap * (1.0 + _kernels._SLACK)
    floor_edge = -(im_floor * (1.0 - _kernels._SLACK))
    sign = cap = floor = visited = 0
    spine = np.empty(spine_len, dtype=np.complex128)
    below, first = [], n
    for k in range(depth, 0, -1):
        width = branches * q ** (k - 1)
        first -= width
        visited += width
        level = []
        for j in range(width):
            if k == depth and leaf is not None:
                z = complex(leaf)
            else:
                s = 0j
                for c in below[j * q : (j + 1) * q]:
                    s += c
                z = crecip_scalar(g - eps * omegas[first + j] - s)
            sign += not z.imag < 0.0
            cap += abs(z) > cap_edge
            floor += z.imag > floor_edge
            level.append(z)
        if k <= spine_len:
            spine[k - 1] = level[ray_branch * q ** (k - 1)]
        below = level
    viol = np.array([sign, cap, floor, visited], dtype=np.int64)
    return np.array(below, dtype=np.complex128), spine, omegas[0], viol


def materialized_tree_operator(
    q: int,
    depth: int,
    branches: int,
    epsilon: float,
    pot_spec,
    seed: int,
):
    """Dense operator of the depth-L tree ball with the sweep's potentials.

    Node ids are level-ordered exactly as in the sweeps, so dense inversion
    of (H - gamma) is directly comparable with recursion outputs.
    Returns (H, omegas, offsets).
    """
    n = _kernels.tree_node_count(q, depth, branches)
    if n > 20000:
        raise BudgetError(f"materialized tree would hold {n} nodes; lower the depth")
    offsets = level_offsets(q, depth, branches)
    key = _rng.derive_key(seed, "tree-sweep")
    omegas = _rng.draw_omega_vec(
        pot_spec.kind, pot_spec.support_bound, key, np.arange(n, dtype=np.int64)
    )
    h = np.zeros((n, n), dtype=np.float64)
    h[np.arange(n), np.arange(n)] = epsilon * omegas
    for b in range(branches):
        child = offsets[1] + b
        h[0, child] = 1.0
        h[child, 0] = 1.0
    for k in range(1, depth):
        width = branches * q ** (k - 1)
        for m in range(width):
            parent = offsets[k] + m
            for c in range(q):
                child = offsets[k + 1] + m * q + c
                h[parent, child] = 1.0
                h[child, parent] = 1.0
    return h, omegas, offsets


def full_ball_green_row(
    q: int,
    depth: int,
    branches: int,
    epsilon: float,
    pot_spec,
    gamma,
    seed: int,
    leaf_mode: str = "bare",
):
    """Root row of the ball Green function via recursion/Schur/factorization.

    Retains every cavity value (level by level), so this is meant for small
    materialized balls.
    Returns (row, omegas) with row[v] = G(root, v) for level-ordered v.
    """
    g = complex(gamma)
    (leaf,), _, _ = tree_green._grid_bounds(q, pot_spec, epsilon, [g], leaf_mode)
    n = _kernels.tree_node_count(q, depth, branches)
    if n > 200000:
        raise BudgetError(f"full-ball evaluation on {n} nodes; lower the depth")
    offsets = level_offsets(q, depth, branches)
    key = _rng.derive_key(seed, "tree-sweep")
    omegas = _rng.draw_omega_vec(
        pot_spec.kind, pot_spec.support_bound, key, np.arange(n, dtype=np.int64)
    )
    # the cavity values of each level in level order, leaves first, in CPython scalars
    values_by_level: list[np.ndarray] = [None] * (depth + 1)
    below = []
    for k in range(depth, 0, -1):
        level = []
        for p in range(branches * q ** (k - 1)):
            if k == depth and leaf is not None:
                level.append(complex(leaf))
                continue
            s = 0j
            for z in below[p * q : (p + 1) * q]:
                s += z
            level.append(crecip_scalar(g - epsilon * float(omegas[offsets[k] + p]) - s))
        values_by_level[k] = np.array(level, dtype=np.complex128)
        below = level

    row = np.empty(n, dtype=np.complex128)
    diag = green_diagonal(values_by_level[1], float(omegas[0]), epsilon, g)
    row[0] = diag
    prev = diag * values_by_level[1]
    row[offsets[1] : offsets[1] + branches] = prev
    for k in range(2, depth + 1):
        width = branches * q ** (k - 2)
        parents = np.repeat(prev, q)
        prev = parents * values_by_level[k]
        row[offsets[k] : offsets[k] + width * q] = prev
    return row, omegas


def zero_disorder_chain(q, depth, gamma, leaf_mode):
    """Cavity values of levels 1..depth of an eps = 0 ball, in CPython scalars.

    All siblings coincide, so each level is one value: the leaf (the free
    fixed point, or the bare 1/gamma), then crecip_scalar(gamma - s) per
    level up, s the sum of q copies of the level below from 0j.  values[k-1]
    is level k; values[depth-1] is the leaf.
    """
    g = complex(gamma)
    if leaf_mode == "free":
        z = complex(tree_green.free_forward_green_complex(g, q))
    elif leaf_mode == "bare":
        z = crecip_scalar(g)
    else:
        raise ConfigError(f"unknown leaf_mode {leaf_mode!r}")
    values = [z]
    for _ in range(depth - 1):
        s = 0j
        for _ in range(q):
            s += z
        z = crecip_scalar(g - s)
        values.append(z)
    return np.array(values[::-1], dtype=np.complex128)


def zero_disorder_profile(q, eta, r_max, lambdas, depth, leaf_mode):
    """Means of the eps = 0 distance profile by the scalar route, shape
    (r_max + 1, L): per lambda the depth-``depth`` chain, the Schur diagonal
    of q + 1 copies of its top and CPython products down it."""
    lambdas = sorted(float(x) for x in lambdas)
    means = np.empty((r_max + 1, len(lambdas)))
    for i, lam in enumerate(lambdas):
        gamma = complex(lam, eta)
        values = zero_disorder_chain(q, depth, gamma, leaf_mode)
        green = green_diagonal(np.full(q + 1, values[0]), 0.0, 0.0, gamma)
        means[0, i] = green.imag
        for r in range(1, r_max + 1):
            green = green * complex(values[r - 1])
            means[r, i] = green.imag
    return means


def zero_disorder_moments(q, pot_spec, lambda_grid, eta_grid, s_list, depth, leaf_mode):
    """The eps = 0 moment table as a point mass, in CPython floats: per
    (lam, eta), lam major, (|Im z|, (Im z)**2, {s: max(|Im z|, floor)**-s})
    of the root z, the free fixed point (free leaves) or the top of the
    depth + 1 chain (bare leaves)."""
    rows = []
    for lam in lambda_grid:
        for eta in eta_grid:
            gamma = complex(lam, eta)
            if leaf_mode == "free":
                z = complex(tree_green.free_forward_green_complex(gamma, q))
            else:
                z = complex(zero_disorder_chain(q, depth + 1, gamma, leaf_mode)[0])
            floor = tree_green.imag_floor(q, 0.0, pot_spec.support_bound, abs(lam), eta)
            clamped = max(abs(z.imag), floor)
            rows.append((abs(z.imag), z.imag * z.imag, {s: clamped ** (-s) for s in s_list}))
    return rows


# ----------------------------------------------------------------------
# lifted Green function, pair by pair
# ----------------------------------------------------------------------


def directed_edge_ids(g, path) -> np.ndarray:
    """Directed edge ids along a vertex path, one neighbor search per step."""
    deg = g.q + 1
    ids = np.empty(len(path) - 1, dtype=np.int64)
    for k in range(len(path) - 1):
        u, v = path[k], path[k + 1]
        j = int(np.searchsorted(g.neighbors[u], v))
        if j >= deg or g.neighbors[u][j] != v:
            raise ConfigError(f"path step ({u}, {v}) is not an edge")
        ids[k] = j * g.n + u
    return ids


def message_rounds(nbrs, rev, omega, eps, gamma, msg, rounds, abs_cap, im_floor):
    """``_kernels.messages_advance`` as a per-edge loop over CPython scalars,
    from the messages ``msg`` (in edge order, slot-major ids: edge j*n + v is
    v's j-th edge).

    Each round sums the messages out of every vertex from 0j in edge order,
    then takes, for edge e into v = nbrs[e], the denominator
    gamma - eps*omega[v] - (sum at v - msg[rev[e]]) and its reciprocal by
    the conjugate formula; every new message is checked against the three
    bounds on its own (a NaN counts on the sign bound).  The loop runs in
    edge order and reads each target from ``nbrs``, the independent
    definition of what the kernel derives from ``rev`` alone (e into
    rev[e] % n) when it moves the values of a round onto their edges by one
    gather.  Returns (messages, violation counters [sign, cap, floor,
    visited]).
    """
    g = complex(gamma)
    nbrs, rev, omega = nbrs.tolist(), rev.tolist(), omega.tolist()
    msg = msg.tolist()
    n = len(omega)
    cap_edge = abs_cap * (1.0 + 1e-12)
    floor_edge = -(im_floor * (1.0 - 1e-12))
    sign = cap = floor = visited = 0
    for _ in range(rounds):
        sums = []
        for v in range(n):
            s = 0j
            for z in msg[v::n]:
                s += z
            sums.append(s)
        new = []
        for e, v in enumerate(nbrs):
            cut = sums[v] - msg[rev[e]]
            zr = (g.real - eps * omega[v]) - cut.real
            zi = g.imag - cut.imag
            den = zr * zr + zi * zi
            z = complex(zr / den, -zi / den)
            sign += not (z.imag < 0.0)
            cap += abs(z) > cap_edge
            floor += z.imag > floor_edge
            visited += 1
            new.append(z)
        msg = new
    return np.array(msg, dtype=np.complex128), np.array([sign, cap, floor, visited])


def lifted_green_pairwise(graph, pot, gamma, depth, rows, cols):
    """``tree_green.lifted_green`` for the entries (rows[i], cols[i]), one at a time.

    Keeps the messages of every round from zero, each from one round of the
    per-edge loop ``message_rounds``, runs a BFS geodesic for every
    off-diagonal entry and multiplies its factors as numpy scalars.
    Returns (diagonals, pair values, violation counters).
    """
    g = complex(gamma)
    floor = tree_green.imag_floor(graph.q, pot.epsilon, pot.spec.support_bound, abs(g.real), g.imag)
    nbrs, rev = graph.directed_targets(), graph.reverse_edge_index()
    msg = np.zeros(rev.size, dtype=np.complex128)
    viol = np.zeros(4, dtype=np.int64)
    history = [msg]
    for _ in range(depth):
        msg, counts = message_rounds(
            nbrs, rev, pot.omega, pot.epsilon, g, msg, 1, 1.0 / g.imag, floor,
        )
        viol += counts
        history.append(msg)
    deg = graph.q + 1
    site_sum = _kernels._sum_children(msg.reshape(deg, graph.n), deg)
    diagonals = _kernels.crecip_vec(pot.epsilon * pot.omega - g + site_sum)
    pair_values = np.empty(len(rows), dtype=np.complex128)
    for i, (x, y) in enumerate(zip(rows, cols)):
        value = diagonals[x]
        if x != y:
            _, path = graphs.distance_and_geodesic(graph, int(x), int(y))
            for k, e in enumerate(directed_edge_ids(graph, path), start=1):
                value *= history[depth + 1 - k][e]
        pair_values[i] = value
    return diagonals, pair_values, viol


# ----------------------------------------------------------------------
# closed forms and scalar streams
# ----------------------------------------------------------------------


def kesten_mckay_density(lam: float, q: int) -> float:
    """Limiting spectral density of large random (q+1)-regular graphs.

    Computed as (1/pi) Im of the free tree Green diagonal at lam + i0;
    zero outside the open band (-2 sqrt(q), 2 sqrt(q)).  The scalar route
    that ``esd.kesten_mckay_densities`` follows bit for bit.
    """
    if abs(lam) >= 2.0 * math.sqrt(q):
        return 0.0
    zeta = tree_green.free_forward_green(lam, q)
    diag = green_diagonal([zeta] * (q + 1), 0.0, 0.0, complex(lam, 0.0))
    return diag.imag / math.pi


def kesten_mckay_density_rational(lam: float, q: int) -> float:
    """Closed rational form of the Kesten-McKay density; used as a cross-check."""
    band = 4.0 * q - lam * lam
    if band <= 0.0:
        return 0.0
    return (q + 1) * math.sqrt(band) / (2.0 * math.pi * ((q + 1) ** 2 - lam * lam))


def uniform01(h: int) -> float:
    return (h >> 11) * 2.0**-53


def draw_omega_scalar(kind: str, bound: float, key: int, index: int) -> float:
    base = index * OMEGA_STRIDE
    u0 = uniform01(hash_u64(key, base))
    if kind == "uniform":
        return bound * (2.0 * u0 - 1.0)
    if kind == "two-point":
        return bound if u0 >= 0.5 else -bound
    if kind == "rescaled-beta":
        u1 = uniform01(hash_u64(key, base + 1))
        u2 = uniform01(hash_u64(key, base + 2))
        med = min(max(min(u0, u1), u2), max(u0, u1))
        return bound * (2.0 * med - 1.0)
    raise ValueError(f"unknown potential kind {kind!r}")


# ----------------------------------------------------------------------
# graph structure and files
# ----------------------------------------------------------------------


def graph_from_edges(n: int, q: int, edges):
    """Build and validate a RegularGraph from an undirected edge list."""
    arr = np.asarray(sorted((min(u, v), max(u, v)) for u, v in edges), dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ConfigError("edge endpoint out of range")
    if len({(int(u), int(v)) for u, v in arr}) != len(arr):
        raise ConfigError("repeated edge in input")
    neighbors = graphs._neighbors_from_edges(n, q, arr)
    return graphs.RegularGraph(n=n, q=q, neighbors=neighbors, edges=arr)


def ring_pairs_bfs(g, r: int):
    """(rows, cols) of ``qe.ring_kernel``: one BFS per vertex x, stopped at
    depth r, and the vertices found at distance exactly r in ascending order."""
    rows, cols = [], []
    for x in range(g.n):
        dist = {x: 0}
        frontier = deque([x])
        while frontier:
            u = frontier.popleft()
            if dist[u] == r:
                continue
            for v in g.neighbors[u].tolist():
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        far = sorted(y for y, d in dist.items() if d == r)
        rows += [x] * len(far)
        cols += far
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)


def girth(g) -> int:
    """Length of a shortest cycle (n + 1 for an acyclic graph)."""
    cycle, _ = graphs._bfs_cycles(g)
    found = cycle[cycle > 0]
    return int(found.min()) if found.size else g.n + 1


def load_graph_json(path):
    """The ``RegularGraph`` of a file that ``graphs.save_graph_json`` wrote."""
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    try:
        n = int(payload["n"])
        q = int(payload["q"])
        edges = payload["edges"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"graph file {path} is missing fields: {exc}") from exc
    for e in edges:
        if len(e) != 2 or not (0 <= e[0] < e[1] < n):
            raise ConfigError(f"graph file {path}: bad edge entry {e}")
    return graph_from_edges(n, q, edges)


def neighbors_lexsort(n: int, q: int, edges) -> np.ndarray:
    """Sorted neighbor rows by a lexsort of (src, dst), with the same checks
    and messages as ``graphs._neighbors_from_edges``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    degree = np.bincount(src, minlength=n)
    repeated = np.zeros(n, dtype=bool)
    repeated[src[1:][(src[1:] == src[:-1]) & (dst[1:] == dst[:-1])]] = True
    bad = np.flatnonzero((degree != q + 1) | repeated)
    if bad.size:
        x = int(bad[0])
        if degree[x] != q + 1:
            raise ConfigError(f"vertex {x} has degree {degree[x]}, expected {q + 1}")
        raise ConfigError(f"vertex {x} carries a repeated neighbor")
    return dst.reshape(n, q + 1)


def pairing_argsort(n: int, q: int, seed: int, max_attempts: int = 200_000):
    """(edges, attempt) of the pairing ``graphs.generate_random_regular``
    accepts, from the same stub keys ordered by a stable argsort of the
    64-bit keys themselves (not by unhashing their sort), testing
    multi-edges on a stable argsort; ``attempt`` is the accepted attempt."""
    d = q + 1
    base = _rng.derive_key(seed, "pairing", n, q)
    for attempt in range(max_attempts):
        stub_keys = _rng.hash_u64_vec(_rng.derive_key(base, attempt), np.arange(n * d, dtype=np.uint64))
        order = np.argsort(stub_keys, kind="stable")
        if np.any(np.diff(stub_keys[order]) == 0):
            continue
        stubs = order // d
        a, b = stubs[0::2], stubs[1::2]
        if np.any(a == b):
            continue
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        if np.any(ordered[1:] == ordered[:-1]):
            continue
        return np.stack([lo[order], hi[order]], axis=1), attempt
    raise AssertionError(f"no simple pairing in {max_attempts} attempts")


def random_regular_argsort(n: int, q: int, seed: int, max_attempts: int = 200_000):
    """(edges, neighbors) of ``graphs.generate_random_regular`` from
    ``pairing_argsort`` and the lexsort neighbor table."""
    edges, _ = pairing_argsort(n, q, seed, max_attempts)
    return edges, neighbors_lexsort(n, q, edges)


def random_regular_philox(n: int, q: int, seed: int, max_attempts: int | None = None):
    """The graph ``graphs.generate_random_regular`` drew before its pairings
    came from the counter streams: each stub permutation from numpy's Philox
    keyed by ``derive_key(seed, "pairing", n, q)``.  The tests that pin values
    recorded on those graphs build them here."""
    graphs.check_order(n, q)
    d = q + 1
    if max_attempts is None:
        max_attempts = min(200_000, max(1000, math.ceil(20.0 * math.exp((d * d - 1) / 4.0))))
    rng = np.random.Generator(np.random.Philox(key=_rng.derive_key(seed, "pairing", n, q)))
    stubs_base = np.repeat(np.arange(n, dtype=np.int64), d)
    for attempt in range(1, max_attempts + 1):
        stubs = rng.permutation(stubs_base)
        a = stubs[0::2]
        b = stubs[1::2]
        if np.any(a == b):
            continue
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        if np.any(keys[1:] == keys[:-1]):
            continue
        edges = np.stack(np.divmod(keys, n), axis=1)
        neighbors = graphs._neighbors_from_edges(n, q, edges)
        return graphs.RegularGraph(n=n, q=q, neighbors=neighbors, edges=edges)
    raise AssertionError(f"no simple pairing in {max_attempts} attempts")


def reverse_edges_searchsorted(g) -> np.ndarray:
    """Id of (v -> u) per directed edge (u -> v), from the rank r of the key
    v*n + u among the keys u*n + v of the sorted neighbor rows: (v -> u) is
    the (r % deg)-th edge of v = r // deg, with id (r % deg)*n + v."""
    deg = g.q + 1
    keys = np.repeat(np.arange(g.n, dtype=np.int64), deg) * g.n + g.neighbors.reshape(-1)
    srcs = np.tile(np.arange(g.n, dtype=np.int64), deg)
    rank = np.searchsorted(keys, g.directed_targets() * g.n + srcs)
    return rank % deg * g.n + rank // deg


def edge_kernel_lexsort(g, value: float = 1.0):
    """``qe.edge_kernel`` with its entries put in (row, col) order by a lexsort."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.q + 1)
    cols = g.neighbors.reshape(-1).copy()
    order = np.lexsort((cols, rows))
    return qe.Kernel(
        n=g.n, r_max=1, rows=rows[order], cols=cols[order],
        values=np.full(rows.size, value, dtype=np.float64),
        distances=np.ones(rows.size, dtype=np.int64), tag=f"edges:{value}",
    )


# ----------------------------------------------------------------------
# sparse routes: CSR powers and ARPACK
# ----------------------------------------------------------------------


def assemble_csr(graph, pot):
    """H = A + eps * diag(omega) as a CSR matrix."""
    n, edges = graph.n, graph.edges
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    vals = np.concatenate([np.ones(2 * len(edges)), pot.epsilon * pot.omega])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def graph_return_moment_csr(graph, pot, k: int) -> float:
    """trace(H^k) / n via sparse powers; exact integers when eps = 0."""
    if k > esd.LLN_K_CAP:
        raise ConfigError(f"moment order {k} beyond the cap {esd.LLN_K_CAP}")
    if k == 0:
        return 1.0
    n = graph.n
    if pot.epsilon == 0.0:
        rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
        cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
        h = scipy.sparse.csr_matrix(
            (np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, n)
        )
    else:
        h = assemble_csr(graph, pot)
    power = h.copy()
    for _ in range(k - 1):
        power = power @ h
    return float(power.diagonal().sum()) / n


def exp_check_arpack(g):
    """``graphs.exp_check`` by ARPACK (``eigsh``, k=2, both ends) on a CSR adjacency."""
    n, deg = g.n, g.q + 1
    adj = scipy.sparse.csr_matrix(
        (np.full(n * deg, 1.0 / deg), g.neighbors.reshape(-1), np.arange(n + 1) * deg),
        shape=(n, n),
    )

    def deflated(x):  # (M - u u^T) x for a vector or a block of columns
        return adj @ x - x.sum(axis=0) / n

    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=deflated, matmat=deflated, dtype=np.float64
    )
    key = _rng.derive_key(n, "exp-check", g.q)
    v0 = _rng.uniform01_vec(_rng.hash_u64_vec(key, np.arange(n, dtype=np.uint64))) - 0.5
    mu, vecs = scipy.sparse.linalg.eigsh(op, k=2, which="BE", v0=v0)

    residual = float(np.max(np.abs(deflated(vecs) - vecs * mu)))
    if residual > RESIDUAL_RTOL * max(float(np.max(np.abs(mu))), 1.0):
        raise InvariantError(f"expansion Ritz residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e}")
    gram_err = float(np.max(np.abs(vecs.T @ vecs - np.eye(2))))
    if gram_err > RESIDUAL_RTOL:
        raise InvariantError(f"expansion Ritz vectors deviate from orthonormal by {gram_err:.3e}")

    connected = float(mu.max()) <= 1.0 - graphs.CONNECTED_TOL
    second = float(np.max(np.abs(mu)))
    beta = 1.0 - second
    if not connected:
        beta = min(beta, 0.0)
    return graphs.ExpansionReport(second_modulus=second, beta=beta, connected=connected)


# ----------------------------------------------------------------------
# kernel brackets
# ----------------------------------------------------------------------


def per_distance_interpolation_bound(kernel, profile) -> float:
    """sum_r max|second difference of ratio_r| / 8 * |S_r|: the bound of the
    distance-only bracket taken one distance at a time."""
    mass = kernel.distance_mass()
    return sum(
        float(np.max(np.abs(np.diff(profile.ratios[r], n=2)))) / 8.0 * abs(complex(mass[r]))
        for r in range(kernel.r_max + 1)
    )


@dataclass(frozen=True)
class EquivalenceTable:
    """Median gap between lifted and distance-only kernel averages, by size."""

    medians: list
    gaps: dict


def average_equivalence_check(
    q: int,
    pot_spec,
    epsilon: float,
    n_values,
    seed_pairs,
    lambdas,
    eta0: float,
    profile,
    cover_depth: int,
    kernel_builder=qe.edge_kernel,
) -> EquivalenceTable:
    """Gap |<K>_lifted - <K>_tree| over a size grid, medianed over seeds.

    The kernel is built from graph structure only, so it is independent of
    the potential by construction.
    """
    medians = []
    gaps = {}
    for n in n_values:
        diffs = []
        for gs, ps in seed_pairs:
            g = graphs.generate_random_regular(n, q, gs)
            kernel = kernel_builder(g)
            curve = qe.kernel_average_simple(kernel, profile)
            pot = anderson.sample_potential(n, pot_spec, epsilon, ps)
            lifted = qe.kernel_average_general_curve(kernel, g, pot, lambdas, eta0, cover_depth)
            for lam, lhs in zip(lifted.lambdas, lifted.values):
                diffs.append(abs(lhs - complex(curve(lam)).real))
        gaps[n] = diffs
        medians.append(float(np.median(diffs)))
    return EquivalenceTable(medians=medians, gaps=gaps)
