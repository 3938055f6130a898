"""Reference implementations that only the tests call.

Each one is an independent or slower route to a quantity the package
computes: the cavity fixed point by iteration, materialized tree balls for
dense inversion, the full root row of a ball, the lifted Green function
pair by pair, the scalar and the rational Kesten-McKay forms, a
node-by-node sweep of one tree ball, scalar potential draws, the girth and
the graph file reader, the scipy routes (CSR powers, ARPACK) that the numpy
moment and expansion checks replace, the per-distance interpolation bound
of a distance-only bracket, and the gap between the lifted and the
distance-only brackets over a size grid.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from qelab import _kernels, _rng, anderson, esd, graphs, qe, tree_green
from qelab._rng import OMEGA_STRIDE, POT_RESCALED_BETA, POT_TWO_POINT, POT_UNIFORM, hash_u64
from qelab.anderson import RESIDUAL_RTOL
from qelab.errors import BudgetError, ConfigError, InvariantError

# ----------------------------------------------------------------------
# cavity values and tree balls
# ----------------------------------------------------------------------


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
                z = _kernels.crecip_scalar(g - eps * omegas[first + j] - s)
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
    offsets = _kernels.level_offsets(q, depth, branches)
    key = _rng.derive_key(seed, "tree-sweep")
    omegas = _rng.draw_omega_vec(
        pot_spec.kind_code, pot_spec.support_bound, key, np.arange(n, dtype=np.int64)
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
    offsets = _kernels.level_offsets(q, depth, branches)
    key = _rng.derive_key(seed, "tree-sweep")
    omegas = _rng.draw_omega_vec(
        pot_spec.kind_code, pot_spec.support_bound, key, np.arange(n, dtype=np.int64)
    )
    sizes = [branches * q**k for k in range(depth)]

    def site(k):
        return epsilon * omegas[None, offsets[k] : offsets[k] + sizes[k - 1]]

    values_by_level: list[np.ndarray] = [None] * (depth + 1)
    work = _kernels.SweepWork(1, sizes)
    for k, _, values, _, _ in _kernels.cavity_levels(q, sizes, g, leaf, site, work):
        values_by_level[k] = values[0].copy()

    row = np.empty(n, dtype=np.complex128)
    diag = tree_green.green_diagonal(values_by_level[1], float(omegas[0]), epsilon, g)
    row[0] = diag
    prev = diag * values_by_level[1]
    row[offsets[1] : offsets[1] + branches] = prev
    for k in range(2, depth + 1):
        width = branches * q ** (k - 2)
        parents = np.repeat(prev, q)
        prev = parents * values_by_level[k]
        row[offsets[k] : offsets[k] + width * q] = prev
    return row, omegas


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
        ids[k] = u * deg + j
    return ids


def lifted_green_pairwise(graph, pot, gamma, depth, rows, cols):
    """``tree_green.lifted_green`` for the entries (rows[i], cols[i]), one at a time.

    Keeps the messages of every round (one round per call), runs a BFS
    geodesic for every off-diagonal entry and multiplies its factors as
    numpy scalars.  Returns (diagonals, pair values, violation counters).
    """
    g = complex(gamma)
    floor = tree_green.imag_floor(graph.q, pot.epsilon, pot.spec.support_bound, abs(g.real), g.imag)
    targets = graph.directed_targets()
    rev = graph.reverse_edge_index()
    msg, viol = _kernels.messages_init(targets, pot.omega, pot.epsilon, g, 1.0 / g.imag, floor)
    history = [msg]
    for _ in range(1, depth):
        msg, counts = _kernels.messages_advance(
            targets, rev, pot.omega, pot.epsilon, g, msg, 1, 1.0 / g.imag, floor,
        )
        viol += counts
        history.append(msg)
    deg = graph.q + 1
    site_sum = _kernels._sum_children(msg.reshape(graph.n, deg), deg)
    diagonals = _kernels.crecip_vec(pot.epsilon * pot.omega - g + site_sum)
    pair_values = np.empty(len(rows), dtype=np.complex128)
    for i, (x, y) in enumerate(zip(rows, cols)):
        value = diagonals[x]
        if x != y:
            _, path = graphs.distance_and_geodesic(graph, int(x), int(y))
            for k, e in enumerate(directed_edge_ids(graph, path), start=1):
                value *= history[depth - k][e]
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
    diag = tree_green.green_diagonal([zeta] * (q + 1), 0.0, 0.0, complex(lam, 0.0))
    return diag.imag / math.pi


def kesten_mckay_density_rational(lam: float, q: int) -> float:
    """Closed rational form of the Kesten-McKay density; used as a cross-check."""
    band = 4.0 * q - lam * lam
    if band <= 0.0:
        return 0.0
    return (q + 1) * math.sqrt(band) / (2.0 * math.pi * ((q + 1) ** 2 - lam * lam))


def uniform01(h: int) -> float:
    return (h >> 11) * 2.0**-53


def draw_omega_scalar(kind: int, bound: float, key: int, index: int) -> float:
    base = index * OMEGA_STRIDE
    u0 = uniform01(hash_u64(key, base))
    if kind == POT_UNIFORM:
        return bound * (2.0 * u0 - 1.0)
    if kind == POT_TWO_POINT:
        return bound if u0 >= 0.5 else -bound
    if kind == POT_RESCALED_BETA:
        u1 = uniform01(hash_u64(key, base + 1))
        u2 = uniform01(hash_u64(key, base + 2))
        med = min(max(min(u0, u1), u2), max(u0, u1))
        return bound * (2.0 * med - 1.0)
    raise ValueError(f"unknown potential kind code {kind}")


# ----------------------------------------------------------------------
# graph structure and files
# ----------------------------------------------------------------------


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
    return graphs.graph_from_edges(n, q, edges)


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
        (np.full(n * deg, 1.0 / deg), g.directed_targets(), np.arange(n + 1) * deg),
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
