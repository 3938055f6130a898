"""Quantum-ergodicity statistics.

The central quantity is the normalized windowed sum

    (1/N) * sum over eigenvalues in (-lambda0, lambda0) of
            | <psi_i, K psi_i> - <K>(lambda_i) |

for diagonal observables (the reference bracket is the plain average <a>)
and for finite-range kernels (the bracket weights per-distance kernel mass
with tree Green-function ratios).  The diagonal path is the R = 0 kernel
path with a constant curve, so the two reports coincide bitwise on shared
inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _rng, graphs, tree_green
from .anderson import PotentialAssignment, SpectralData
from .errors import ConfigError
from .graphs import RegularGraph
from .tree_green import DistanceRatioProfile


def check_sup_bound(values: np.ndarray, what: str) -> None:
    """ConfigError unless every value is finite with modulus at most 1 (up
    to 1e-12): the sup-norm rule of observables, kernels and the config."""
    if not np.all(np.abs(values) <= 1.0 + 1e-12):  # NaN fails the comparison too
        raise ConfigError(f"{what} is not finite or exceeds the sup bound 1")


def check_observable(kind: str, *, constant: float = 1.0, alpha: float = 0.5, path=None) -> None:
    """ConfigError unless ``make_observable`` accepts these fields at some n
    (it reads a file, and checks a delta vertex, only when it makes one)."""
    if kind not in ("constant", "indicator", "delta", "file"):
        raise ConfigError(f"unknown observable kind {kind!r}")
    if kind == "constant":
        check_sup_bound(np.array([constant]), f"constant observable {constant}")
    if kind == "indicator" and not (0.0 < alpha < 1.0):
        raise ConfigError("indicator fraction alpha must lie in (0, 1)")
    if kind == "file" and not path:
        raise ConfigError("file observables need observable.path")


@dataclass(frozen=True)
class Observable:
    """Per-vertex test function with sup norm at most one.

    Observables are built from graph structure and their own seed only;
    the pipeline constructs them before any potential is sampled so they
    cannot depend on the disorder.
    """

    values: np.ndarray
    tag: str

    def __post_init__(self):
        check_sup_bound(self.values, f"observable {self.tag!r}")

    @property
    def n(self) -> int:
        return self.values.size


def make_observable(kind: str, n: int, seed: int = 0, *, constant: float = 1.0,
                    alpha: float = 0.5, vertex: int = 0, path=None) -> Observable:
    """Deterministic observable constructors.

    kind: "constant" (value ``constant``), "indicator" (random vertex set of
    fraction ``alpha``, ranked by a counter stream on ``seed``), "delta"
    (single vertex), or "file" (JSON array of per-vertex values, validated
    against the sup bound).  The fields follow ``check_observable``.
    """
    check_observable(kind, constant=constant, alpha=alpha, path=path)
    if kind == "constant":
        return Observable(np.full(n, constant, dtype=np.float64), tag=f"constant:{constant}")
    if kind == "indicator":
        return Observable(indicator_set_values(n, alpha, seed), tag=f"indicator:{alpha}")
    if kind == "delta":
        if not (0 <= vertex < n):
            raise ConfigError("delta vertex out of range")
        vals = np.zeros(n, dtype=np.float64)
        vals[vertex] = 1.0
        return Observable(vals, tag=f"delta:{vertex}")
    try:
        with open(path, "r", encoding="utf-8") as f:
            vals = np.asarray(json.load(f), dtype=np.float64)
    except (OSError, ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read observable file {path}: {exc}") from exc
    if vals.ndim != 1 or vals.size != n:
        raise ConfigError(
            f"observable file {path} must hold {n} values, got shape {vals.shape}"
        )
    return Observable(vals, tag=f"file:{path}")


def indicator_set_values(n: int, alpha: float, seed: int) -> np.ndarray:
    """0/1 values of a deterministic random set of round(alpha*n) vertices."""
    size = int(round(alpha * n))
    key = _rng.derive_key(seed, "indicator")
    ranks = _rng.hash_u64_vec(key, np.arange(n, dtype=np.uint64))
    chosen = np.argsort(ranks, kind="stable")[:size]
    vals = np.zeros(n, dtype=np.float64)
    vals[chosen] = 1.0
    return vals


@dataclass(frozen=True)
class Kernel:
    """Finite-range two-point test function, stored as COO triples.

    Entries are sorted by (row, col); values vanish beyond graph distance
    ``r_max`` and are sup-bounded by one.  ``distances[e]`` caches the graph
    distance of entry e.
    """

    n: int
    r_max: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    distances: np.ndarray
    tag: str

    def __post_init__(self):
        check_sup_bound(self.values, f"kernel {self.tag!r}")
        if self.distances.size and int(self.distances.max()) > self.r_max:
            raise ConfigError("kernel entry beyond the declared range")

    def distance_mass(self) -> np.ndarray:
        """S_r = (1/n) * sum of entries at distance exactly r, r = 0..r_max."""
        out = np.zeros(self.r_max + 1, dtype=self.values.dtype)
        for r in range(self.r_max + 1):
            mask = self.distances == r
            if np.any(mask):
                out[r] = self.values[mask].sum() / self.n
        return out


def diagonal_kernel(obs: Observable) -> Kernel:
    idx = np.arange(obs.n, dtype=np.int64)
    return Kernel(
        n=obs.n,
        r_max=0,
        rows=idx,
        cols=idx,
        values=obs.values.copy(),
        distances=np.zeros(obs.n, dtype=np.int64),
        tag=f"diag({obs.tag})",
    )


def edge_kernel(g: RegularGraph, value: float = 1.0) -> Kernel:
    """All-ones (scaled) kernel supported on graph edges; range 1."""
    # neighbor rows are sorted, so the entries come in (row, col) order
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.q + 1)
    return Kernel(
        n=g.n,
        r_max=1,
        rows=rows,
        cols=g.neighbors.reshape(-1).copy(),
        values=np.full(rows.size, value, dtype=np.float64),
        distances=np.ones(rows.size, dtype=np.int64),
        tag=f"edges:{value}",
    )


def ring_kernel(g: RegularGraph, r: int, value: float = 1.0) -> Kernel:
    """Indicator (scaled) of pairs at graph distance exactly r."""
    if r == 0:
        return diagonal_kernel(make_observable("constant", g.n, constant=value))
    # level d holds the pairs (x, y) at distance d as sorted keys x*n + y, for
    # every x at once; a neighbor of a vertex at distance d lies at d - 1, d
    # or d + 1, so the neighbors of level d minus levels d - 1 and d are d + 1
    n = g.n
    prev = np.empty(0, dtype=np.int64)
    front = np.arange(n, dtype=np.int64) * (n + 1)
    for _ in range(r):
        src, vert = np.divmod(front, n)
        cand = np.unique(src[:, None] * n + g.neighbors[vert])
        cand = cand[~(graphs._sorted_member(front, cand) | graphs._sorted_member(prev, cand))]
        prev, front = front, cand
    rows, cols = np.divmod(front, n)
    return Kernel(
        n=n,
        r_max=r,
        rows=rows,
        cols=cols,
        values=np.full(rows.size, value, dtype=np.float64),
        distances=np.full(rows.size, r, dtype=np.int64),
        tag=f"ring:{r}:{value}",
    )


# ----------------------------------------------------------------------
# kernel averages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelAverageCurve:
    """lambda -> reference bracket <K>(lambda), linear between tabulated values.

    ``values[i]`` is the bracket at ``lambdas[i]`` (ascending); ``eta`` is the
    imaginary part of the spectral parameter it was computed at.
    """

    lambdas: np.ndarray
    values: np.ndarray
    eta: float
    r_max: int

    def __call__(self, lam):
        return np.interp(lam, self.lambdas, self.values)

    def interpolation_error_bound(self) -> float:
        """Second-order bound on the linear-interpolation error of the bracket.

        max over interior grid points of |second difference of values| / 8;
        shrinks with the grid spacing squared.
        """
        if self.values.size < 3:
            return 0.0
        return float(np.max(np.abs(np.diff(self.values, n=2)))) / 8.0


def unit_diagonal_curve(kernel: Kernel) -> KernelAverageCurve:
    """Constant curve <K>(lambda) = S_0; the diagonal-observable bracket."""
    if kernel.r_max != 0:
        raise ConfigError("unit curve is only defined for range-0 kernels")
    return KernelAverageCurve(
        lambdas=np.array([-1e30, 1e30]),
        values=np.repeat(kernel.distance_mass(), 2),
        eta=0.0,
        r_max=0,
    )


def kernel_average_simple(kernel: Kernel, profile: DistanceRatioProfile) -> KernelAverageCurve:
    """Distance-only averaged bracket sum_r ratio_r(lambda) * S_r from a tree
    ratio profile, tabulated on the profile's grid.

    Valid because the disorder-averaged Im G depends only on the graph
    distance of the pair; for range 0 the curve is constantly S_0 = <a>.
    """
    if profile.r_max < kernel.r_max:
        raise ConfigError(
            f"profile reaches distance {profile.r_max} but the kernel has range {kernel.r_max}"
        )
    mass = kernel.distance_mass()
    return KernelAverageCurve(
        lambdas=profile.lambdas,
        values=sum(profile.ratios[r] * mass[r] for r in range(kernel.r_max + 1)),
        eta=profile.eta,
        r_max=kernel.r_max,
    )


def kernel_average_general_curve(
    kernel: Kernel,
    g: RegularGraph,
    pot: PotentialAssignment,
    lambdas,
    eta0: float,
    depth: int,
) -> KernelAverageCurve:
    """Potential-dependent bracket through the lifted Green function,
    tabulated over a lambda grid.

    At each lambda: sum over kernel entries of K(x,y) * Im g_lift(x~, y~),
    normalized by the total lifted diagonal mass.  Feeds qe_statistic_kernel
    when the reference bracket should carry the actual potential realization
    instead of the disorder average.  The kernel entries are lifted once for
    the whole grid, along BFS geodesics (always non-backtracking).
    """
    lambdas = np.asarray(sorted(float(x) for x in lambdas))
    lifts = _kernel_lifts(kernel, g)
    values = []
    for lam in lambdas:
        lifted = tree_green.lifted_green(g, pot, complex(lam, eta0), depth, lifts)
        values.append((kernel.values * lifted.pair_values.imag).sum() / lifted.diagonals.imag.sum())
        del lifted  # one lambda's pair values alive at a time
    return KernelAverageCurve(
        lambdas=lambdas, values=np.array(values), eta=eta0, r_max=kernel.r_max
    )


def _kernel_lifts(kernel: Kernel, g: RegularGraph) -> tree_green.PairLifts:
    """Lifts of the kernel entries along their BFS geodesics.

    An entry (x, x) lifts to no step and an adjacent pair to the edge x -> y,
    which is the BFS geodesic of an edge; only pairs further apart run a BFS,
    and their steps fill the same table, padded with -1.
    """
    rows, cols = kernel.rows, kernel.cols
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= g.n):
        raise ConfigError(f"kernel entries out of range for n={g.n}")
    ids, adjacent = g.edge_ids(rows, cols)
    far = np.flatnonzero(~adjacent & (rows != cols))
    far_steps = tree_green.pair_lifts(g, [
        graphs.distance_and_geodesic(g, x, y)[1]
        for x, y in zip(rows[far].tolist(), cols[far].tolist())
    ]).steps
    width = max(far_steps.shape[1], int(adjacent.any()))
    steps = np.full((rows.size, width), -1, dtype=np.int64)
    steps[adjacent, :1] = ids[adjacent, None]
    steps[far, :far_steps.shape[1]] = far_steps
    return tree_green.PairLifts(starts=rows.astype(np.int64), steps=steps)


# ----------------------------------------------------------------------
# windowed eigenfunction statistics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QEReport:
    """Windowed eigenfunction-average statistic for one decomposition."""

    statistic: float
    window_count: int
    lambda0: float
    r_max: int
    eigen_indices: np.ndarray
    eigen_values: np.ndarray
    brackets: np.ndarray
    averages: np.ndarray

    def per_eigenvalue_rows(self):
        """Rows (i, lambda_i, bracket, average) for the optional CSV dump."""
        return list(zip(self.eigen_indices.tolist(), self.eigen_values.tolist(),
                        self.brackets.tolist(), self.averages.tolist()))


# eigenvector columns per block of the bracket evaluation; bounds the gathered
# (kernel entries x block) factors
_BRACKET_BLOCK = 128


def _quadratic_brackets(kernel: Kernel, vecs: np.ndarray, columns=slice(None)) -> np.ndarray:
    """<psi_i, K psi_i> for the eigenvector columns in the slice ``columns``
    (default all).

    Columns are evaluated in fixed blocks, views of ``vecs`` that gather only
    their own entries; each value equals the one of an all-columns evaluation
    bit for bit.
    """
    start, stop, _ = columns.indices(vecs.shape[1])
    out = np.empty(stop - start)
    for lo in range(start, stop, _BRACKET_BLOCK):
        block = vecs[:, lo:min(lo + _BRACKET_BLOCK, stop)]
        out[lo - start:lo - start + _BRACKET_BLOCK] = np.einsum(
            "e,ei,ei->i", kernel.values, block[kernel.rows], block[kernel.cols]
        )
    return out


def qe_statistic_kernel(
    spec_data: SpectralData,
    kernel: Kernel,
    lambda0: float,
    averages: KernelAverageCurve,
    q: int,
) -> QEReport:
    """Windowed statistic (1/N) sum |<psi_i, K psi_i> - <K>(lambda_i)|.

    The eigenvectors and the kernel entries must be real, as
    ``anderson.eigendecompose`` and the kernel constructors make them: the
    bracket takes no complex conjugate.
    """
    check_window(lambda0, q)
    if kernel.n != spec_data.n:
        raise ConfigError("kernel and spectrum sizes differ")
    if np.iscomplexobj(spec_data.eigenvectors) or np.iscomplexobj(kernel.values):
        raise ConfigError("the statistics need real eigenvectors and real kernel entries")
    if averages.r_max < kernel.r_max:
        raise ConfigError("average curve does not cover the kernel range")
    window = spec_data.window(lambda0)
    idx = np.arange(window.start, window.stop)
    lams = spec_data.eigenvalues[window]
    brackets = _quadratic_brackets(kernel, spec_data.eigenvectors, window)
    avg = averages(lams)
    statistic = float(np.sum(np.abs(brackets - avg))) / spec_data.n
    return QEReport(
        statistic=statistic,
        window_count=int(idx.size),
        lambda0=lambda0,
        r_max=kernel.r_max,
        eigen_indices=idx,
        eigen_values=lams,
        brackets=brackets,
        averages=avg,
    )


def qe_statistic_diag(
    spec_data: SpectralData,
    obs: Observable,
    lambda0: float,
    q: int,
) -> QEReport:
    """Diagonal-observable statistic; the R = 0 kernel path with <K> = <a>."""
    kernel = diagonal_kernel(obs)
    return qe_statistic_kernel(spec_data, kernel, lambda0, unit_diagonal_curve(kernel), q)


def check_window(lambda0: float, q: int) -> None:
    """ConfigError unless 0 < lambda0 < 2*sqrt(q): the window (-lambda0, lambda0)
    lies inside the energy window (-2*sqrt(q), 2*sqrt(q)) of the ergodicity
    statements."""
    band = 2.0 * np.sqrt(q)
    if not (0.0 < lambda0 < band):
        raise ConfigError(
            f"lambda0 = {lambda0} must lie in the open interval (0, 2*sqrt(q)) = (0, {band:.6f})"
        )
