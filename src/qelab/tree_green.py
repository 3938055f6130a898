"""Green-function engine for the Anderson model on the infinite regular tree.

Everything is built from the one-step cavity recursion

    z_parent = 1 / (gamma - eps*omega - sum of child cavity values),

the Schur diagonal formula, and the product factorization of off-diagonal
entries along tree geodesics.  Monte-Carlo expectations sample the recursion
on exact depth-L tree balls (work grows like q**L, guarded by a cap; at
eps = 0 every ball is the same chain of one node per level).  The same
recursion run as message passing on the directed edges of a finite graph,
from zero messages, yields the truncated Green function of the
universal-cover lift.

Leaf seeding: sweeps can start leaves at the bare site value 1/(gamma -
eps*omega), which is exact for materialized finite balls, or at the
zero-disorder fixed point ("free").  The estimators default to free
seeding: at moderate eta the per-level contraction is slow (about
1 - c*eta), so bare seeding would need depths far beyond the q**L work
cap, while free-seeded sweeps are stable under depth doubling already at
L of order 10 (see the benchmark and the stabilization tests).

Cavity values z always satisfy Im z < 0, |z| <= 1/eta and
|Im z| >= eta / c_tilde**2; sweeps count violations of these bounds.

Both tree estimators get their balls from one helper, ``_sweep_grid``:
the distance profile with q + 1 branches at the root (G(o, o) is minus the
root value, and the spine carries it down a ray), the moment table with q
(the root value is a cavity value).  It checks the depth, eta and the work
budget before it builds any leaf or floor, then sweeps the balls through
``_kernels.tree_batch`` (at eps = 0 its one-sample chain layout), and
checks the roots against the cavity bounds with the levels below them: the
operator bound that gives them to the levels of a ball gives them to the
root too.  At eps = 0 a q-branch root with free leaves is the free fixed
point itself, exact also at eta = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _rng
from .anderson import PotentialSpec
from .errors import BudgetError, ConfigError

DEFAULT_WORK_CAP = 1 << 24  # tree nodes per sweep
DEFAULT_MC_WORK_CAP = 1 << 33  # tree nodes per Monte-Carlo call
MAX_DEPTH = 400


def c_tilde(q: int, epsilon: float, support_bound: float, lam: float, eta: float = 0.0) -> float:
    """Operator-norm constant in the deterministic lower bound eta/c_tilde**2."""
    return (q + 1) + abs(epsilon) * support_bound + abs(lam) + max(1.0, eta)


def imag_floor(q: int, epsilon: float, support_bound: float, lam: float, eta: float) -> float:
    return eta / c_tilde(q, epsilon, support_bound, lam, eta) ** 2


# ----------------------------------------------------------------------
# free (zero-disorder) values
# ----------------------------------------------------------------------


def free_forward_green(lam: float, q: int) -> complex:
    """Boundary value of the free cavity field inside the spectral band.

    Returns (lam - i*sqrt(4q - lam^2)) / (2q); defined for |lam| < 2*sqrt(q).
    """
    if abs(lam) >= 2.0 * math.sqrt(q):
        raise ConfigError(f"|lam| = {abs(lam)} is at or beyond the band edge 2*sqrt({q})")
    return complex(lam, -math.sqrt(4.0 * q - lam * lam)) / (2.0 * q)


def free_forward_green_complex(gamma, q: int) -> complex:
    """Root of q*z**2 - gamma*z + 1 = 0 with Im z < 0.

    Continuous in gamma for eta > 0 and converging to free_forward_green as
    eta drops to 0 inside the band (where it is evaluated directly).
    """
    g = complex(gamma)
    if g.imag == 0.0:
        return free_forward_green(g.real, q)
    s = np.sqrt(complex(g * g - 4.0 * q))
    r1 = (g + s) / (2.0 * q)
    r2 = (g - s) / (2.0 * q)
    return r1 if r1.imag < 0 else r2


# ----------------------------------------------------------------------
# tree-ball helpers
# ----------------------------------------------------------------------


def suggest_depth(q: int, eta: float) -> int:
    """Depth heuristic ceil(8/eta), capped at 400 and at ``DEFAULT_WORK_CAP``
    nodes per ball."""
    want = min(MAX_DEPTH, max(1, math.ceil(8.0 / eta)))
    depth = 1
    while depth < want and _kernels.tree_node_count(q, depth + 1, q + 1) <= DEFAULT_WORK_CAP:
        depth += 1
    return depth


def check_eta(eta: float, epsilon: float, leaf_mode: str) -> None:
    """ConfigError unless eta > 0, or eta = 0 on the stationary free path (eps = 0, free leaves)."""
    if not (eta > 0 or (eta == 0 and epsilon == 0.0 and leaf_mode == "free")):
        raise ConfigError("eta must be strictly positive for Green evaluations")


def check_profile_depth(depth: int, r_max: int) -> None:
    """ConfigError unless the distance profile's balls reach distance ``r_max``."""
    if depth < r_max + 1:
        raise ConfigError(f"depth {depth} too shallow for distance {r_max}; need depth >= r_max + 1")


def check_exponents(s_values) -> None:
    """ConfigError unless every inverse-moment exponent of the moment table is positive."""
    if any(s <= 0 for s in s_values):
        raise ConfigError("inverse-moment exponents must be positive")


def _leaf_value(gamma: complex, q: int, leaf_mode: str) -> complex | None:
    """Seed of every leaf: the free fixed point, or None for bare leaves."""
    if leaf_mode == "free":
        return free_forward_green_complex(gamma, q)
    if leaf_mode == "bare":
        return None
    raise ConfigError(f"unknown leaf_mode {leaf_mode!r}; expected 'bare' or 'free'")


def _grid_bounds(q, pot_spec, epsilon, gammas, leaf_mode):
    """Leaves, modulus caps 1/eta and Im floors of a gamma grid, each floor
    taken at that gamma's own |lambda| = |Re gamma|.

    The callers check eta first: it must be positive, except on the
    closed-form free path (eps = 0, free leaves), where the recursion is
    stationary at eta = 0 and the cap is infinite.
    """
    leaves = [_leaf_value(g, q, leaf_mode) for g in gammas]
    caps = [1.0 / g.imag if g.imag > 0 else np.inf for g in gammas]
    floors = [imag_floor(q, epsilon, pot_spec.support_bound, abs(g.real), g.imag) for g in gammas]
    return leaves, caps, floors


def _check_budget(ball_nodes: int, balls: int) -> None:
    """BudgetError for a ball beyond ``DEFAULT_WORK_CAP`` nodes or a call
    beyond ``DEFAULT_MC_WORK_CAP`` node visits."""
    if ball_nodes > DEFAULT_WORK_CAP:
        raise BudgetError(f"per-sweep work exceeds cap {DEFAULT_WORK_CAP}; lower the depth")
    if ball_nodes * balls > DEFAULT_MC_WORK_CAP:
        raise BudgetError(
            f"MC budget {ball_nodes * balls} node visits exceeds {DEFAULT_MC_WORK_CAP}; "
            "lower depth or samples"
        )


def _sweep_grid(q, pot_spec, epsilon, gammas, leaf_mode, depth, branches, samples, key,
                spine_len):
    """Checked cavity sweeps of the balls of a tree estimator at every gamma of a grid.

    The balls have depth ``depth`` and ``branches`` subtrees at the root.
    Returns (root values, shape (G, m); cavity values at depths
    1..spine_len down the first ray, shape (G, m, spine_len); violation
    counters of every level and of the roots, shape (G, 4); the Im floors of
    the grid).  A root is 1/(gamma - eps*omega - sum of the branch values):
    with q + 1 branches it is -G(o, o), with q a cavity value, and the
    operator bound that gives the cavity bounds to the levels of a ball
    gives them to its root too.

    The balls come from ``_kernels.tree_batch``: m = ``samples`` of them
    (potentials keyed by ``key``) under the budget guard of
    ``_check_budget``, or at eps = 0, where every ball is the same, one
    sample with one node per level (m = 1) and no guard.  There a q-branch
    root with free leaves is the free fixed point itself, where the
    recursion is stationary, so it stays exact at eta = 0.
    """
    if samples < 1:
        raise ConfigError("need at least one sample")
    if depth < 1:
        raise ConfigError("depth must be at least 1")
    for g in gammas:
        check_eta(g.imag, epsilon, leaf_mode)
    # the guard runs before the leaves and floors, whose cost grows with the grid
    if epsilon != 0.0:
        _check_budget(_kernels.tree_node_count(q, depth, branches), samples * len(gammas))
    leaves, caps, floors = _grid_bounds(q, pot_spec, epsilon, gammas, leaf_mode)
    root, spine, viol = _kernels.tree_batch(
        q, depth, branches, epsilon, gammas, leaves, pot_spec.kind, pot_spec.support_bound,
        key, samples, spine_len, 0, caps, floors,
    )
    if epsilon == 0.0 and branches == q and leaf_mode == "free":
        root[:, 0] = leaves
    for i in range(len(gammas)):
        _kernels._check_vec(root[i].real, root[i].imag, caps[i], floors[i], viol[i])
    return root, spine, viol, floors


# ----------------------------------------------------------------------
# Monte-Carlo expectations along a root ray
# ----------------------------------------------------------------------


def _mean_stderr(batch: np.ndarray):
    """Means over the samples of a batch, axis 1 of shape (G, samples, ...),
    and their standard errors (0 for one sample)."""
    samples = batch.shape[1]
    means = batch.mean(axis=1)
    if samples > 1:
        stderrs = batch.std(axis=1, ddof=1) / math.sqrt(samples)
    else:
        stderrs = np.zeros_like(means)
    return means, stderrs


def _ray_green_im(root, spine):
    """Im G(o, y_r) for r = 0..spine_len, shape (G, samples, spine_len + 1),
    from the (q + 1)-branch roots and the spines of ``_kernels.tree_batch``.

    G(o, o) is -root, the Schur diagonal 1/(eps*omega - gamma + sum of the
    branch values); G(o, y_r) multiplies it by the cavity values down the ray.
    """
    green = -root
    im = np.empty(root.shape + (spine.shape[-1] + 1,))
    im[..., 0] = green.imag
    for r in range(spine.shape[-1]):
        green = _kernels.cmul_vec(green, spine[..., r])
        im[..., r + 1] = green.imag
    return im


@dataclass(frozen=True)
class DistanceRatioProfile:
    """Monte-Carlo estimates of E[Im G(o, y_r)] on a lambda grid at fixed eta.

    ``means`` and ``stderrs`` have shape (r_max + 1, L): row r holds the
    sample means of Im G(o, y_r) at each of the L lambdas and their standard
    errors.  ``ratios`` = means / means[0], so ratios[0] is identically one;
    rows r >= 1 are the distance-r profiles entering the averaged kernel
    bracket.  The profile depends only on (q, epsilon, eta, distribution),
    never on a graph or a potential seed.  ``violations`` sums the sweeps'
    counts of sign, cap and floor violations and of cavity values checked.
    """

    lambdas: np.ndarray
    ratios: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    eta: float
    r_max: int
    violations: np.ndarray


def distance_ratio_profile(
    q: int,
    pot_spec: PotentialSpec,
    epsilon: float,
    eta: float,
    r_max: int,
    lambdas,
    samples: int,
    seed: int,
    depth: int,
    leaf_mode: str = "free",
) -> DistanceRatioProfile:
    """Monte-Carlo distance profile over a lambda grid (one point or more).

    Each sample sweeps an independent depth-L ball (substream keyed by the
    sample index), takes the Schur diagonal and multiplies cavity values
    down the first ray.  Every lambda is swept over the same balls (common
    random numbers), so a lambda's estimate does not depend on the rest of
    the grid, and differences along the grid, and between profiles of one
    seed at other eta, carry little sampling noise.  The budget guard of
    ``_check_budget`` applies to the whole grid.  At eps = 0 every ball is
    the same chain: one sample, with zero stderr.  Deterministic for fixed
    seed: fixed substreams, fixed summation order.
    """
    check_profile_depth(depth, r_max)
    lambdas = np.asarray(sorted(float(x) for x in lambdas))
    gammas = [complex(lam, eta) for lam in lambdas]
    root, spine, viol, _ = _sweep_grid(q, pot_spec, epsilon, gammas, leaf_mode, depth, q + 1,
                                       samples, _rng.derive_key(seed, "profile"), r_max)
    means, stderrs = (np.ascontiguousarray(a.T) for a in _mean_stderr(_ray_green_im(root, spine)))
    return DistanceRatioProfile(
        lambdas=lambdas,
        ratios=means / means[:1],
        means=means,
        stderrs=stderrs,
        eta=eta,
        r_max=r_max,
        violations=viol.sum(axis=0),
    )


# ----------------------------------------------------------------------
# cavity-moment tables (condition checks)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentPoint:
    lam: float
    eta: float
    abs_mean: float
    abs_stderr: float
    square_mean: float
    square_stderr: float
    inverse: dict
    violations: np.ndarray


@dataclass(frozen=True)
class GreenMomentTable:
    """Per (lam, eta) grid point: E|Im z|, E (Im z)^2, E |Im z|^-s estimates."""

    points: list
    s_values: tuple
    depth: int

    def csv_rows(self):
        rows = []
        for p in self.points:
            rows.append((p.lam, p.eta, "", p.abs_mean, p.abs_stderr, "abs_mean"))
            rows.append((p.lam, p.eta, "", p.square_mean, p.square_stderr, "square_mean"))
            for s in self.s_values:
                est, err = p.inverse[s]
                rows.append((p.lam, p.eta, s, est, err, "inverse_moment"))
        return rows

    def total_violations(self) -> np.ndarray:
        out = np.zeros(4, dtype=np.int64)
        for p in self.points:
            out += p.violations
        return out

    def bounds(self):
        """(inf over grid of abs_mean, sup over grid of square_mean)."""
        abs_means = [p.abs_mean for p in self.points]
        sq_means = [p.square_mean for p in self.points]
        return min(abs_means), max(sq_means)


def green_condition_moments(
    q: int,
    pot_spec: PotentialSpec,
    epsilon: float,
    lambda_grid,
    eta_grid,
    s_list,
    samples: int,
    seed: int,
    depth: int,
    leaf_mode: str = "free",
) -> GreenMomentTable:
    """Monte-Carlo moments of the root cavity field over a (lam, eta) grid.

    The inverse moments are clamped below at the deterministic floor
    eta/c_tilde**2 (a no-op in exact arithmetic) so they are finite by
    construction.  Every grid point is swept over the same balls (one key
    and one call for the whole table, under the budget guard of
    ``_check_budget``); at eps = 0 the field is deterministic: one sample,
    with zero stderrs.
    """
    lambda_grid = [float(x) for x in lambda_grid]
    s_list = tuple(float(s) for s in s_list)
    check_exponents(s_list)
    grid = [(lam, float(eta)) for lam in lambda_grid for eta in eta_grid]
    gammas = [complex(lam, eta) for lam, eta in grid]
    zeta, _, viol, floors = _sweep_grid(q, pot_spec, epsilon, gammas, leaf_mode, depth, q,
                                        samples, _rng.derive_key(seed, "green-moments"), 0)
    abs_vals = np.abs(zeta.imag)
    abs_mean, abs_err = _mean_stderr(abs_vals)
    sq_mean, sq_err = _mean_stderr(zeta.imag * zeta.imag)
    clamped = np.maximum(abs_vals, np.array(floors)[:, None])
    inverse = {s: _mean_stderr(clamped ** (-s)) for s in s_list}
    points = [
        MomentPoint(lam, eta, float(abs_mean[i]), float(abs_err[i]), float(sq_mean[i]),
                    float(sq_err[i]), {s: (float(m[i]), float(e[i]))
                                       for s, (m, e) in inverse.items()}, viol[i])
        for i, (lam, eta) in enumerate(grid)
    ]
    return GreenMomentTable(points=points, s_values=s_list, depth=depth)


# ----------------------------------------------------------------------
# lifted Green function on a finite graph (universal-cover truncation)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LiftedGreen:
    """Depth-L truncated Green values of the universal-cover lift."""

    diagonals: np.ndarray
    pair_values: np.ndarray
    violations: np.ndarray


@dataclass(frozen=True)
class PairLifts:
    """Pairs lifted to the universal cover, independent of the potential and gamma.

    Pair i starts at vertex ``starts[i]``; ``steps[i, k]`` is the directed
    edge id (j*n + u for u -> neighbors[u, j], ``RegularGraph.edge_ids``)
    of step k + 1 of its non-backtracking path, and -1 past the end of the
    path.
    """

    starts: np.ndarray
    steps: np.ndarray


def _first_bad(mask: np.ndarray):
    """(row, column) of the first True entry of a 2-D mask in row-major order."""
    flat = int(np.argmax(mask))
    return divmod(flat, mask.shape[1])


def pair_lifts(graph, paths) -> PairLifts:
    """Lift vertex paths [x, ..., y] (each at least one vertex, never
    backtracking, every step an edge) to start vertices and edge-id steps."""
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    if lengths.size and lengths.min() < 1:
        raise ConfigError("empty pair path")
    width = int(lengths.max()) if lengths.size else 1
    inside = np.arange(width) < lengths[:, None]
    verts = np.full(inside.shape, -1, dtype=np.int64)
    verts[inside] = np.fromiter(
        itertools.chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum())
    )
    outside = inside & ((verts < 0) | (verts >= graph.n))
    if np.any(outside):
        i, k = _first_bad(outside)
        raise ConfigError(f"vertex {verts[i, k]} of path {list(paths[i])} is out of range")
    back = inside[:, 2:] & (verts[:, :-2] == verts[:, 2:])
    if np.any(back):
        i, k = _first_bad(back)
        raise ConfigError(f"path {list(paths[i])} backtracks at step {k}")
    u, v, live = verts[:, :-1], verts[:, 1:], inside[:, 1:]
    ids, found = graph.edge_ids(np.where(live, u, 0), v)
    stray = live & ~found
    if np.any(stray):
        i, k = _first_bad(stray)
        raise ConfigError(f"path step ({u[i, k]}, {v[i, k]}) is not an edge")
    steps = np.where(live, ids, -1)
    return PairLifts(starts=verts[:, 0].copy(), steps=steps)


def lifted_green(
    graph,
    pot,
    gamma,
    depth: int,
    lifts: PairLifts,
) -> LiftedGreen:
    """Green function of the lifted operator, truncated at cover depth L.

    Messages on directed edges reproduce the cavity recursion of the
    universal cover with the potential pulled back through the covering
    map.  The diagonal at x combines the q+1 branch messages of the
    depth-L ball around the lift of x; an off-diagonal pair multiplies the
    branch message of the ball at each step of its non-backtracking
    geodesic, taking the message one round earlier per step so that every
    factor is the cavity value of the same truncated ball.  The result
    equals dense inversion of the materialized ball operator exactly.

    The pairs come lifted (``pair_lifts``), so callers build the lifts once
    per kernel and graph and reuse them for every gamma; the products run
    one step at a time over all pairs.
    """
    g = complex(gamma)
    check_eta(g.imag, pot.epsilon, "bare")
    _, (abs_cap,), (floor,) = _grid_bounds(graph.q, pot.spec, pot.epsilon, [g], "bare")
    if depth < 1:
        raise ConfigError("depth must be at least 1")
    max_steps = lifts.steps.shape[1]
    if depth < max_steps:
        raise ConfigError(
            f"cover depth {depth} shorter than a requested geodesic ({max_steps} steps)"
        )
    # messages start at zero, so round 1 gives the bare site values and
    # round r cavity values with r - 1 levels below their target; the
    # diagonal reads round depth, step k of a path round depth + 1 - k, which
    # is history[-k]: no earlier round is kept
    history, viol = _kernels.messages_advance(
        graph.reverse_edge_index(), pot.omega, pot.epsilon, g, depth, max(max_steps, 1),
        abs_cap, floor,
    )
    deg = graph.q + 1
    site_sum = _kernels._sum_children(history[-1].reshape(deg, graph.n), deg)
    diagonals = _kernels.crecip_vec(pot.epsilon * pot.omega - g + site_sum)
    pair_values = diagonals[lifts.starts]
    for k in range(1, max_steps + 1):
        edge = lifts.steps[:, k - 1]
        rows = np.flatnonzero(edge >= 0)
        pair_values[rows] = _kernels.cmul_vec(pair_values[rows], history[-k][edge[rows]])
    return LiftedGreen(diagonals=diagonals, pair_values=pair_values, violations=viol)
