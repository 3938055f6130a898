"""Spectral-measure diagnostics.

Kesten-McKay density and CDF for the potential-free model, Monte-Carlo
integrated-density-of-states for the disordered tree, Kolmogorov distances
between empirical spectra and tabulated reference CDFs, and the
local-weak-convergence moment check: normalized traces of H^k on the graph
against exact closed-walk return moments on the tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, tree_green
from .anderson import PotentialSpec, SpectralData
from .errors import ConfigError

LLN_K_CAP = 12
_CDF_GRID = 8193
_IDS_GRID = 129


def kesten_mckay_densities(lams, q: int) -> np.ndarray:
    """Limiting spectral density of large random (q+1)-regular graphs at ``lams``.

    (1/pi) Im of the free tree Green diagonal at lam + i0, zero outside the
    open band (-2 sqrt(q), 2 sqrt(q)).  Follows ``free_forward_green`` and
    the scalar Schur diagonal step for step, so each value has the bits of
    the scalar route (``tests/oracles.py``): the q+1 cavity values are
    summed one by one, then 1/(0 - lam + sum).
    """
    lams = np.asarray(lams, dtype=np.float64)
    out = np.zeros(lams.shape)
    inside = np.abs(lams) < 2.0 * math.sqrt(q)
    lam = lams[inside]
    zeta = np.empty(lam.shape, dtype=np.complex128)
    zeta.real = lam / (2 * q)
    zeta.imag = -np.sqrt(4.0 * q - lam * lam) / (2 * q)
    acc = np.zeros(lam.shape, dtype=np.complex128)
    for _ in range(q + 1):
        acc = acc + zeta
    out[inside] = _kernels.crecip_vec((0.0 - lam.astype(np.complex128)) + acc).imag / math.pi
    return out


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral from x[0] (scipy's operation order)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


@functools.lru_cache(maxsize=None)
def _kesten_mckay_table(q: int):
    edge = 2.0 * math.sqrt(q)
    grid = np.linspace(-edge, edge, _CDF_GRID)
    cum = _cumulative_trapezoid(kesten_mckay_densities(grid, q), grid)
    cum /= cum[-1]
    grid.flags.writeable = False
    cum.flags.writeable = False
    return grid, cum


@dataclass(frozen=True)
class CdfTable:
    """A reference CDF tabulated on a grid: linear in between, 0 below, 1 above.

    ``violations`` sums the cavity-bound counters of the sweeps behind the
    table (zero for a closed form).  Plain arrays, so it pickles to workers.
    """

    grid: np.ndarray
    cum: np.ndarray
    violations: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.grid, self.cum, left=0.0, right=1.0)


def kesten_mckay_cdf(q: int) -> CdfTable:
    """CDF of the Kesten-McKay law (vectorized; grid built once per q)."""
    grid, cum = _kesten_mckay_table(q)
    return CdfTable(grid, cum, np.zeros(4, dtype=np.int64))


def ids_cdf(
    q: int,
    pot_spec: PotentialSpec,
    epsilon: float,
    eta: float,
    samples: int,
    seed: int,
    depth: int,
    leaf_mode: str = "free",
) -> CdfTable:
    """CDF of the eta-smoothed density of states on a uniform ``_IDS_GRID``-point grid.

    The density at lam is (1/pi) E[Im G(o,o; lam + i eta)]: the r = 0 row of
    one distance profile over the grid, every point swept over the same
    balls, under the profile's budget guard for the whole grid.
    """
    edge = 2.0 * math.sqrt(q) + abs(epsilon) * pot_spec.support_bound + 4.0 * eta
    grid = np.linspace(-edge, edge, _IDS_GRID)
    profile = tree_green.distance_ratio_profile(
        q, pot_spec, epsilon, eta, 0, grid, samples, seed, depth, leaf_mode
    )
    dens = profile.means[0] / math.pi
    cum = _cumulative_trapezoid(dens, grid)
    cum /= cum[-1]
    return CdfTable(grid, cum, profile.violations)


# ----------------------------------------------------------------------
# Kolmogorov distance
# ----------------------------------------------------------------------


def esd_compare(spec_data: SpectralData, reference_cdf) -> float:
    """Kolmogorov (sup) distance between the empirical CDF and a reference."""
    vals = spec_data.eigenvalues
    n = vals.size
    ref = np.asarray(reference_cdf(vals), dtype=np.float64)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(ref - upper), np.abs(ref - lower))))


# ----------------------------------------------------------------------
# local-weak-limit moment matching
# ----------------------------------------------------------------------


def tree_return_moment(q: int, k: int, epsilon: float, pot_spec: PotentialSpec) -> float:
    """E[(H_tree)^k (o,o)] by exact enumeration of closed length-k walks.

    Walks move along tree edges (factor 1) or stay in place (factor
    eps * omega_site); the expectation attaches the exact distribution
    moments to per-site stay counts.  Subtree symmetry is quotiented out:
    stepping to an unexplored neighbor carries the count of equivalent
    fresh directions.
    """
    if k < 0:
        raise ConfigError("moment order must be nonnegative")
    if k > LLN_K_CAP:
        raise ConfigError(f"moment order {k} beyond the enumeration cap {LLN_K_CAP}")
    if k == 0:
        return 1.0

    moments = [pot_spec.moment(m) for m in range(k + 1)]
    # node records: parent id, explored child ids, stay count, depth
    parents = [-1]
    children: list[list[int]] = [[]]
    stays = [0]
    depths = [0]
    total = 0.0

    def walk(cur: int, steps: int, weight: float) -> None:
        nonlocal total
        if steps == 0:
            if cur == 0:
                contrib = weight
                for node, m in enumerate(stays):
                    if m:
                        contrib *= moments[m]
                        if contrib == 0.0:
                            return
                total += contrib
            return
        if depths[cur] > steps:
            return  # cannot make it back to the root
        if epsilon != 0.0:
            stays[cur] += 1
            walk(cur, steps - 1, weight * epsilon)
            stays[cur] -= 1
        if cur != 0:
            walk(parents[cur], steps - 1, weight)
        for ch in children[cur]:
            walk(ch, steps - 1, weight)
        fresh = (q + 1 if cur == 0 else q) - len(children[cur])
        if fresh > 0:
            node = len(parents)
            parents.append(cur)
            children.append([])
            stays.append(0)
            depths.append(depths[cur] + 1)
            children[cur].append(node)
            walk(node, steps - 1, weight * fresh)
            children[cur].pop()
            parents.pop()
            children.pop()
            stays.pop()
            depths.pop()

    walk(0, k, 1.0)
    return total


def _times_h(keys, vals, nbrs, site):
    """The entries of P @ H from those of P.

    Entries are sorted keys row*n + col with their values; equal keys are
    summed.  H is the adjacency of the neighbor table ``nbrs`` plus
    diag(``site``), or no diagonal when ``site`` is None.
    """
    n, deg = nbrs.shape
    rows, cols = np.divmod(keys, n)
    new_keys = [(rows[:, None] * n + nbrs[cols]).reshape(-1)]
    new_vals = [np.repeat(vals, deg)]
    if site is not None:
        new_keys.append(keys)
        new_vals.append(vals * site[cols])
    out, slot = np.unique(np.concatenate(new_keys), return_inverse=True)
    return out, np.bincount(slot, weights=np.concatenate(new_vals), minlength=out.size)


def graph_return_moment(graph, pot, k: int) -> float:
    """trace(H^k) / n from the neighbor table and eps*omega; no n x n array.

    H^ceil(k/2) and H^floor(k/2) are built as sorted (row, col, value)
    entries, and the trace of their product (H is symmetric) is the sum of
    the products of their common entries.  At eps = 0 every value is a walk
    count, an integer held exactly, so the moment is exact.
    """
    if k > LLN_K_CAP:
        raise ConfigError(f"moment order {k} beyond the cap {LLN_K_CAP}")
    if k == 0:
        return 1.0
    n = graph.n
    site = pot.epsilon * pot.omega if pot.epsilon != 0.0 else None
    powers = [(np.arange(n) * (n + 1), np.ones(n))]  # the identity
    for _ in range((k + 1) // 2):
        powers.append(_times_h(*powers[-1], graph.neighbors, site))
    (left_keys, left), (right_keys, right) = powers[(k + 1) // 2], powers[k // 2]
    _, li, ri = np.intersect1d(left_keys, right_keys, assume_unique=True, return_indices=True)
    return float(np.sum(left[li] * right[ri])) / n


@dataclass(frozen=True)
class MomentComparison:
    k: int
    graph_moment: float
    tree_moment: float

    @property
    def abs_diff(self) -> float:
        return abs(self.graph_moment - self.tree_moment)


def lln_moment_check(graph, pot, k_max: int) -> list[MomentComparison]:
    """Graph-vs-tree return moments for k = 1..k_max."""
    if k_max > LLN_K_CAP:
        raise ConfigError(f"k_max {k_max} beyond the cap {LLN_K_CAP}")
    out = []
    for k in range(1, k_max + 1):
        gm = graph_return_moment(graph, pot, k)
        tm = tree_return_moment(graph.q, k, pot.epsilon, pot.spec)
        out.append(MomentComparison(k=k, graph_moment=gm, tree_moment=tm))
    return out
