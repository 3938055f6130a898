"""Finite-volume Anderson operator: potential sampling, assembly, spectrum.

The operator is H = A + eps * diag(omega) on a (q+1)-regular graph, with the
site potentials omega drawn i.i.d. from a compactly supported distribution.
H has one format, the dense symmetric ndarray, built behind a dimension
cap.  Eigendecomposition is divide-and-conquer LAPACK (``numpy.linalg.eigh``,
driver syevd); every decomposition is checked against residual and
orthonormality bounds.  The symmetry and residual checks run in blocks of
rows, so they allocate no n x n temporary, and the residual multiplies only
the columns a block's nonzeros touch: on ``assemble`` output (q + 2
nonzeros a row) it costs O(n**2 q), not the O(n**3) of a dense product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _rng
from .errors import BudgetError, ConfigError, InvariantError

DIMENSION_CAP = 4096
RESIDUAL_RTOL = 1e-8
# rows per block of the symmetry and residual checks
_CHECK_ROWS = 8

_KINDS = ("uniform", "rescaled-beta", "two-point")


@dataclass(frozen=True)
class PotentialSpec:
    """Distribution of a single site potential.

    ``uniform`` and ``rescaled-beta`` have bounded densities on
    [-support_bound, support_bound] and satisfy the continuity requirement;
    ``two-point`` (Bernoulli on {-A, +A}) does not and must be explicitly
    allowed with ``allow_atomic=True``.
    """

    kind: str = "uniform"
    support_bound: float = 1.0
    allow_atomic: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        if not (self.support_bound > 0):
            raise ConfigError("support_bound must be positive")

    @property
    def continuous(self) -> bool:
        return self.kind != "two-point"

    def moment(self, k: int) -> float:
        """k-th moment of the site distribution (exact)."""
        if k % 2 == 1:
            return 0.0
        a_k = self.support_bound**k
        if self.kind == "uniform":
            return a_k / (k + 1.0)
        if self.kind == "rescaled-beta":
            return a_k * 3.0 / ((k + 1.0) * (k + 3.0))
        return a_k


@dataclass(frozen=True)
class PotentialAssignment:
    """Per-vertex disorder values and the coupling strength."""

    omega: np.ndarray
    epsilon: float
    spec: PotentialSpec = field(default_factory=PotentialSpec)

    def __post_init__(self):
        bound = self.spec.support_bound
        if np.any(np.abs(self.omega) > bound):
            raise InvariantError("potential value outside the declared support")


def sample_potential(n: int, spec: PotentialSpec, epsilon: float, seed: int) -> PotentialAssignment:
    """n i.i.d. draws via the counter-based stream keyed by (seed, vertex)."""
    if n < 1:
        raise ConfigError("need at least one vertex")
    if not spec.continuous and not spec.allow_atomic:
        raise ConfigError(
            "two-point potential violates the continuity requirement on the "
            "site distribution; pass allow_atomic=True to override"
        )
    key = _rng.derive_key(seed, "potential")
    omega = _rng.draw_omega_vec(spec.kind, spec.support_bound, key, np.arange(n, dtype=np.int64))
    return PotentialAssignment(omega=omega, epsilon=float(epsilon), spec=spec)


def assemble(graph, pot: PotentialAssignment) -> np.ndarray:
    """H = A + eps * diag(omega) as a dense symmetric array.

    ``graph`` needs only ``n`` and an (E, 2) integer array ``edges``.  A
    vertex count above ``DIMENSION_CAP`` raises BudgetError before anything
    is allocated.
    """
    n, edges = graph.n, graph.edges
    if pot.omega.size != n:
        raise ConfigError(f"potential length {pot.omega.size} != vertex count {n}")
    _check_dimension(n)
    h = np.zeros((n, n), dtype=np.float64)
    h[edges[:, 0], edges[:, 1]] = 1.0
    h[edges[:, 1], edges[:, 0]] = 1.0
    h[np.diag_indices(n)] = pot.epsilon * pot.omega
    return h


def _check_dimension(n: int) -> None:
    if n > DIMENSION_CAP:
        raise BudgetError(
            f"dimension {n} exceeds the dense-solver cap {DIMENSION_CAP}; "
            "lower the vertex count"
        )


@dataclass(frozen=True)
class SpectralData:
    """Full eigendecomposition of a real symmetric operator.

    ``eigenvalues`` ascending; column i of ``eigenvectors`` pairs with
    eigenvalue i.  Vectors are real and orthonormal to 1e-8 entrywise, with
    a deterministic sign convention (first significant coordinate positive).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def window_mask(self, lambda0: float) -> np.ndarray:
        """Strict open window (-lambda0, lambda0); endpoints excluded."""
        return (self.eigenvalues > -lambda0) & (self.eigenvalues < lambda0)

    def window(self, lambda0: float) -> slice:
        """The columns of ``window_mask`` as one slice.  Ordered eigenvalues,
        ascending from ``eigendecompose`` or reversed, put the window in one
        run of columns (ConfigError if it is not one)."""
        idx = np.flatnonzero(self.window_mask(lambda0))
        if not idx.size:
            return slice(0, 0)
        if idx[-1] - idx[0] + 1 != idx.size:
            raise ConfigError("eigenvalues out of order: the window is not one run of columns")
        return slice(int(idx[0]), int(idx[-1]) + 1)


def _canonical_signs(vecs: np.ndarray) -> None:
    """Flip columns in place so the first coordinate above 1e-8 in modulus is positive.

    Row 0 decides every column whose first entry is above 1e-8; only the
    other columns build the mask of entries above it.  A column with none
    is decided at row 0, as ``argmax`` of an all-False column is 0.
    """
    flip = vecs[0] < 0
    rest = np.flatnonzero(~(np.abs(vecs[0]) > 1e-8))
    if rest.size:
        sub = vecs[:, rest]
        first = np.argmax(np.abs(sub) > 1e-8, axis=0)
        flip[rest] = sub[first, np.arange(rest.size)] < 0
    vecs *= np.where(flip, -1.0, 1.0)


def _check_symmetric(h: np.ndarray) -> None:
    """ConfigError unless |h - h.T| <= 1e-12 entrywise; a NaN or inf pair fails.

    Each block of rows is compared from its diagonal block rightwards with
    the matching block of columns, so every pair is compared once.
    """
    n = h.shape[0]
    for lo in range(0, n, _CHECK_ROWS):
        hi = min(lo + _CHECK_ROWS, n)
        asym = h[lo:hi, lo:] - h[lo:, lo:hi].T
        if not np.all(np.abs(asym, out=asym) <= 1e-12):
            raise ConfigError("operator is not symmetric")


def _max_residual(h: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """max |h @ vecs - vecs * vals| entrywise, block of rows by block of rows.

    A block multiplies only the columns where one of its rows is nonzero,
    so a sparse h (``assemble`` output) costs O(n**2) times the nonzeros of
    a row; a dense h is still correct, only slower than one dense product.
    """
    n = h.shape[0]
    block_max = []
    for lo in range(0, n, _CHECK_ROWS):
        rows = slice(lo, min(lo + _CHECK_ROWS, n))
        hb = h[rows]
        cols = np.flatnonzero(hb.any(axis=0))
        residual = hb[:, cols] @ vecs[cols]
        residual -= vecs[rows] * vals
        block_max.append(np.max(np.abs(residual, out=residual)))
    return float(np.max(block_max))


def eigendecompose(matrix: np.ndarray) -> SpectralData:
    """Dense symmetric eigendecomposition (divide and conquer) with invariant checks.

    The symmetry and residual checks run in blocks of rows (``_CHECK_ROWS``),
    and the residual pays for the nonzeros of ``matrix`` only.  Every caller
    in the package passes ``assemble`` output, at most q + 2 nonzeros a row;
    a dense matrix is checked just as correctly, only more slowly than by
    one dense product.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ConfigError("operator must be square")
    _check_dimension(n)
    h = np.asarray(matrix, dtype=np.float64)
    _check_symmetric(h)
    vals, vecs = np.linalg.eigh(h)
    if n == 0:
        return SpectralData(eigenvalues=vals, eigenvectors=vecs)
    _canonical_signs(vecs)

    scale = max(float(np.max(np.abs(vals))), 1.0)
    max_res = _max_residual(h, vals, vecs)
    if max_res > RESIDUAL_RTOL * scale:
        raise InvariantError(f"eigen residual {max_res:.3e} exceeds {RESIDUAL_RTOL:.0e}*|H|")
    gram = vecs.T @ vecs
    gram[np.diag_indices(n)] -= 1.0
    gram_err = float(np.max(np.abs(gram, out=gram)))
    del gram
    if gram_err > RESIDUAL_RTOL:
        raise InvariantError(f"eigenbasis deviates from orthonormal by {gram_err:.3e}")
    return SpectralData(eigenvalues=vals, eigenvectors=vecs)


def check_spectrum_bound(spec_data: SpectralData, q: int, epsilon: float, bound: float) -> None:
    """Operator-norm bound |lambda| <= (q+1) + |eps|*A, with rounding slack."""
    limit = (q + 1) + abs(epsilon) * bound
    top = float(np.max(np.abs(spec_data.eigenvalues)))
    if top > limit * (1 + 1e-12) + 1e-12:
        raise InvariantError(f"eigenvalue {top} outside [-{limit}, {limit}]")


def spectrum_rows(spec_data: SpectralData):
    """Rows for the optional spectrum dump CSV ("index,eigenvalue")."""
    return [(i, float(v)) for i, v in enumerate(spec_data.eigenvalues)]
