"""Deterministic (q+1)-regular graph sequences.

Generation uses the pairing (configuration) model with whole-sample rejection
of self-loops and multi-edges, so every accepted graph is simple and exactly
regular; each stub permutation is the key order of a splitmix64 counter
stream (``_rng``), as every other random quantity of the package is.  All
structural queries (distances, geodesics, injectivity radii, expansion) are
deterministic: neighbor lists are stored sorted ascending and BFS ties
resolve to the smallest neighbor id.  Nothing here builds an n x n
array: the expansion check runs Lanczos on the neighbor table.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._rng import derive_key, hash_u64_vec, uniform01_vec, unhash_u64_vec
from .anderson import RESIDUAL_RTOL
from .errors import ConfigError, GenerationError, InvariantError

UNREACHABLE = float("inf")


@dataclass(frozen=True)
class RegularGraph:
    """Simple (q+1)-regular undirected graph.

    Attributes
    ----------
    n : int
        Vertex count.
    q : int
        Branching number; every vertex has degree q+1.
    neighbors : ndarray, shape (n, q+1), int64
        Sorted neighbor ids per vertex.
    edges : ndarray, shape (E, 2), int64
        Undirected edges, each listed once with u < v, sorted.
    """

    n: int
    q: int
    neighbors: np.ndarray
    edges: np.ndarray
    _rev: np.ndarray = field(default=None, repr=False, compare=False)

    def directed_targets(self) -> np.ndarray:
        """Flat target array; directed edge u->neighbors[u, j] has id j*n + u."""
        return self.neighbors.T.reshape(-1)

    def edge_ids(self, u, v):
        """Ids of the directed edges u -> v, for vertex arrays of one shape.

        u -> v is an edge when v appears in row u of the neighbor table, at
        position j, and its id is j*n + u: slot-major, so the j-th edges of
        all vertices are one run of ids.  Returns (ids, found); where found
        is False, v is no neighbor of u and the id is u's first edge.
        """
        hit = self.neighbors[u] == v[..., None]
        return hit.argmax(axis=-1) * self.n + u, hit.any(axis=-1)

    def reverse_edge_index(self) -> np.ndarray:
        """For each directed edge (u -> v), the id of (v -> u)."""
        rev = object.__getattribute__(self, "_rev")
        if rev is None:
            srcs = np.tile(np.arange(self.n, dtype=np.int64), self.q + 1)
            rev, _ = self.edge_ids(self.directed_targets(), srcs)
            object.__setattr__(self, "_rev", rev)
        return rev


def _neighbors_from_edges(n: int, q: int, edges: np.ndarray) -> np.ndarray:
    """Sorted neighbor rows of an undirected edge list.

    The first vertex with a degree other than q+1 or a repeated neighbor
    raises (the degree check first); a self-loop lists its vertex twice, so
    it shows as a repeated neighbor.
    """
    edges = edges.reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    # both directions as keys src*n + dst (endpoints lie in [0, n), so keys
    # order like (src, dst) pairs); one sort gives the rows in order
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    src, dst = np.divmod(keys, n)
    degree = np.bincount(src, minlength=n)
    repeated = np.zeros(n, dtype=bool)
    repeated[src[1:][keys[1:] == keys[:-1]]] = True
    bad = np.flatnonzero((degree != q + 1) | repeated)
    if bad.size:
        x = int(bad[0])
        if degree[x] != q + 1:
            raise ConfigError(f"vertex {x} has degree {degree[x]}, expected {q + 1}")
        raise ConfigError(f"vertex {x} carries a repeated neighbor")
    return dst.reshape(n, q + 1)


def check_order(n: int, q: int) -> None:
    """ConfigError unless a simple (q+1)-regular graph on n vertices exists:
    q >= 2, n >= q + 2 and n*(q+1) even."""
    if q < 2:
        raise ConfigError(f"q = {q} must be at least 2")
    if n < q + 2 or (n * (q + 1)) % 2:
        raise ConfigError(f"n = {n} admits no simple {q + 1}-regular graph; "
                          f"need n >= q + 2 = {q + 2} and n*(q+1) even")


def generate_random_regular(n: int, q: int, seed: int, max_attempts: int | None = None) -> RegularGraph:
    """Sample a simple (q+1)-regular graph by rejection from the pairing model.

    Stub i belongs to vertex i // (q+1).  Attempt t (t = 0, 1, ...) keys the
    E = n(q+1) stubs by the 64-bit words
    ``hash_u64_vec(derive_key(derive_key(seed, "pairing", n, q), t), arange(E))``
    and pairs them consecutively in ascending key order.  An attempt in which
    two keys tie is redrawn: with keys modeled as independent uniform draws,
    that keeps every permutation of the stubs exactly equally likely, where
    breaking ties by stub id would favor some (a tie is expected about once
    in 2**65 / E**2 attempts).
    The whole pairing is redrawn whenever it produces a self-loop or a
    multi-edge, so accepted graphs are exact uniform pairing-model samples
    conditioned on simplicity.  Identical (n, q, seed) give identical graphs.
    """
    check_order(n, q)
    d = q + 1
    if max_attempts is None:
        # a pairing is simple with probability about exp(-(d^2 - 1)/4) at large
        # n; 20 times its inverse leaves failure odds near exp(-20)
        max_attempts = min(200_000, max(1000, math.ceil(20.0 * math.exp((d * d - 1) / 4.0))))
    key = derive_key(seed, "pairing", n, q)
    stubs = np.arange(n * d, dtype=np.uint64)
    order = np.empty_like(stubs)
    scratch = np.empty_like(stubs)
    tied = np.empty(n * d - 1, dtype=bool)
    for attempt in range(max_attempts):
        attempt_key = derive_key(key, attempt)
        hash_u64_vec(attempt_key, stubs, order, scratch)
        order.sort()
        if np.equal(order[1:], order[:-1], out=tied).any():
            continue
        # the hash is a bijection of the stub ids, so unhashing the sorted
        # keys gives the stubs in key order without an argsort
        vert = unhash_u64_vec(attempt_key, order, scratch).view(np.int64)
        np.floor_divide(vert, d, out=vert)
        a = vert[0::2]
        b = vert[1::2]
        if np.any(a == b):
            continue
        keys = np.minimum(a, b)
        keys *= n
        keys += np.maximum(a, b)
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):
            continue
        edges = np.stack(np.divmod(keys, n), axis=1)
        neighbors = _neighbors_from_edges(n, q, edges)
        return RegularGraph(n=n, q=q, neighbors=neighbors, edges=edges)
    raise GenerationError(
        f"pairing model produced no simple graph in {max_attempts} attempts "
        f"for n={n}, q={q}, seed={seed}",
        attempts=max_attempts,
    )


# ----------------------------------------------------------------------
# distances and geodesics
# ----------------------------------------------------------------------


def distance_and_geodesic(g: RegularGraph, x: int, y: int):
    """Graph distance and one geodesic, ties broken by smallest-neighbor BFS.

    Returns ``(d, path)`` with ``path[0] == x`` and ``path[-1] == y``.  An
    unreachable pair reports ``(UNREACHABLE, [])``.
    """
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ConfigError(f"vertex ids ({x}, {y}) out of range for n={g.n}")
    if x == y:
        return 0, [x]
    parent = {x: x}
    frontier = deque([x])
    while frontier:
        u = frontier.popleft()
        for v in g.neighbors[u].tolist():
            if v not in parent:
                parent[v] = u
                if v == y:
                    path = [y]
                    while path[-1] != x:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return len(path) - 1, path
                frontier.append(v)
    return UNREACHABLE, []


# ----------------------------------------------------------------------
# injectivity radius and (BST) statistic
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InjectivityProfile:
    """Per-vertex injectivity radii plus the small-radius fraction statistic."""

    radii: np.ndarray  # int64, shape (n,)

    def small_radius_fraction(self, r: int) -> float:
        """|{x : rho(x) < r}| / n, the quantity that must vanish for (BST)."""
        return float(np.count_nonzero(self.radii < r)) / self.radii.size


# sources per batch of the all-sources BFS; bounds the frontier arrays
_BFS_BATCH = 1024


def _sorted_member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_keys, keys)
    hit = pos < sorted_keys.size
    hit[hit] = sorted_keys[pos[hit]] == keys[hit]
    return hit


def _bfs_cycles(g: RegularGraph):
    """Per vertex x: the shortest cycle a BFS from x certifies, and its depth reach.

    A non-tree edge (u, v) of the BFS from x closes a cycle of length
    d(u) + d(v) + 1; ``cycle[x]`` is the least such length (0 when x lies in
    an acyclic component, where ``reach[x]`` is its eccentricity).  The first
    level m that shows a non-tree edge decides it: an edge inside the depth
    m-1 frontier gives 2m-1, a depth-m vertex reached from two frontier
    vertices gives 2m.  Both tests depend only on depths, not on the tree
    chosen, so all sources of a batch advance together on sorted arrays of
    keys (slot * n + vertex).
    """
    n, nbrs = g.n, g.neighbors
    cycle = np.zeros(n, dtype=np.int64)
    reach = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _BFS_BATCH):
        src = np.arange(start, min(start + _BFS_BATCH, n), dtype=np.int64)
        done = np.zeros(src.size, dtype=bool)
        prev = np.empty(0, dtype=np.int64)
        front = np.arange(src.size, dtype=np.int64) * n + src
        m = 1
        while front.size:
            slot, vert = np.divmod(front, n)
            cand = np.sort((slot[:, None] * n + nbrs[vert]).reshape(-1))
            cand = cand[~_sorted_member(prev, cand)]  # the edge back to the parent
            inside = _sorted_member(front, cand)
            odd = cand[inside] // n  # repeated slots only assign the same values again
            cycle[src[odd]] = 2 * m - 1
            done[odd] = True
            fresh = cand[~inside]
            first = np.ones(fresh.size, dtype=bool)
            first[1:] = fresh[1:] != fresh[:-1]
            even = fresh[~first] // n
            even = even[~done[even]]
            cycle[src[even]] = 2 * m
            done[even] = True
            fresh = fresh[first]
            fresh = fresh[~done[fresh // n]]
            exhausted = ~done
            exhausted[fresh // n] = False
            reach[src[exhausted]] = m - 1
            done |= exhausted
            prev, front = front, fresh
            m += 1
    return cycle, reach


def injectivity_radius(g: RegularGraph) -> InjectivityProfile:
    """Largest rho per vertex with the induced ball B(x, rho) acyclic.

    The ball B(x, r) holds a cycle exactly when some non-tree edge of the BFS
    from x has both ends within depth r, so rho(x) = cycle(x) // 2 - 1.
    """
    cycle, reach = _bfs_cycles(g)
    return InjectivityProfile(radii=np.where(cycle > 0, cycle // 2 - 1, reach))


# ----------------------------------------------------------------------
# expansion
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    second_modulus: float
    beta: float
    connected: bool


# a deflated eigenvalue above 1 - CONNECTED_TOL is the Perron eigenvalue of
# a second component
CONNECTED_TOL = 1e-8
# Lanczos stops once the Ritz estimates of both ends are this small
LANCZOS_TOL = RESIDUAL_RTOL / 100
LANCZOS_MAX_STEPS = 5000
LANCZOS_CHECK_SPACING = 8


def _lanczos_step(op, v, v_prev, beta_prev):
    """One step of the three-term recurrence: (alpha, unnormalized next vector)."""
    w = op(v)
    w -= beta_prev * v_prev
    alpha = float(v @ w)
    w -= alpha * v
    return alpha, w


def _lanczos_ends(op, start, n: int):
    """Lowest and highest eigenpair of the symmetric operator ``op`` by Lanczos.

    No basis is stored: the first pass keeps the recurrence coefficients and,
    per end, the step at which its Ritz estimate |beta_m s_{m,i}| fell to
    ``LANCZOS_TOL`` with the eigenvector s of that tridiagonal matrix; a
    second pass runs the same recurrence again and sums the Ritz vectors.
    Each end keeps the Krylov space in which it converged, before a spurious
    copy of it can appear.  Returns (eigenvalues (2,), vectors (n, 2)).
    """
    alphas, betas = [], []
    found = [None, None]  # per end: (step, Ritz value, eigenvector of T)
    v_prev = np.zeros(n)
    v = start / np.linalg.norm(start)
    beta = 0.0
    check = 1
    cap = min(LANCZOS_MAX_STEPS, n)  # Krylov spaces have dimension at most n
    for m in range(1, cap + 1):
        alpha, w = _lanczos_step(op, v, v_prev, beta)
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        if beta <= LANCZOS_TOL or m == check or m == cap:
            # every step up to 16, then every m/SPACING-th: the checks cost
            # O(m**3) summed, and end at most m/SPACING steps late
            check = m + max(1, m // LANCZOS_CHECK_SPACING) if m >= 16 else m + 1
            t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
            theta, s = np.linalg.eigh(t)
            for end, col in enumerate((0, m - 1)):
                if found[end] is None and abs(beta * s[-1, col]) <= LANCZOS_TOL:
                    found[end] = (m, theta[col], s[:, col])
            if found[0] is not None and found[1] is not None:
                break
        v_prev, v = v, w / beta
    else:
        raise InvariantError(f"expansion Lanczos did not converge in {cap} steps")

    vecs = np.zeros((n, 2))
    v_prev = np.zeros(n)
    v = start / np.linalg.norm(start)
    last = max(found[0][0], found[1][0])
    for j in range(last):
        for end, (steps, _, s) in enumerate(found):
            if j < steps:
                vecs[:, end] += s[j] * v
        if j + 1 < last:
            _, w = _lanczos_step(op, v, v_prev, betas[j - 1] if j else 0.0)
            v_prev, v = v, w / betas[j]
    return np.array([found[0][1], found[1][1]]), vecs


def exp_check(g: RegularGraph) -> ExpansionReport:
    """Spectral-gap check of the normalized adjacency M = (q+1)^-1 A.

    beta = 1 - max{|mu| : mu != top Perron eigenvalue}.  The Perron vector
    u = 1/sqrt(n) of a regular graph is exact, so Lanczos runs on the
    deflated operator M - u u^T, applied through the neighbor table, and
    returns its two end eigenvalues.  A disconnected graph keeps eigenvalue
    1 after the deflation and reports beta <= 0 with connected=False.  The
    Lanczos start vector comes from a counter stream keyed by (n, q), so the
    result does not depend on earlier calls; memory is O(n), and the
    returned Ritz pairs pass the residual and orthonormality checks of
    ``eigendecompose``.
    """
    n, deg = g.n, g.q + 1
    nbrs = np.ascontiguousarray(g.neighbors.T)

    def deflated(x):  # (M - u u^T) x for a vector or a block of columns
        return x[nbrs].sum(axis=0) / deg - x.sum(axis=0) / n

    key = derive_key(n, "exp-check", g.q)
    v0 = uniform01_vec(hash_u64_vec(key, np.arange(n, dtype=np.uint64))) - 0.5
    mu, vecs = _lanczos_ends(deflated, v0, n)

    residual = float(np.max(np.abs(deflated(vecs) - vecs * mu)))
    if residual > RESIDUAL_RTOL * max(float(np.max(np.abs(mu))), 1.0):
        raise InvariantError(f"expansion Ritz residual {residual:.3e} exceeds {RESIDUAL_RTOL:.0e}")
    gram_err = float(np.max(np.abs(vecs.T @ vecs - np.eye(2))))
    if gram_err > RESIDUAL_RTOL:
        raise InvariantError(f"expansion Ritz vectors deviate from orthonormal by {gram_err:.3e}")

    connected = float(mu.max()) <= 1.0 - CONNECTED_TOL
    second = float(np.max(np.abs(mu)))
    beta = 1.0 - second
    if not connected:
        beta = min(beta, 0.0)
    return ExpansionReport(second_modulus=second, beta=beta, connected=connected)


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------


def save_graph_json(g: RegularGraph, path) -> None:
    payload = {"n": g.n, "q": g.q, "edges": [[int(u), int(v)] for u, v in g.edges]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")

