"""Similarity-graph construction over an embedding batch.

The chain is: squared Euclidean distances -> RBF adjacency with a variance
bandwidth -> degree-normalized adjacency -> propagator P = (I - alpha*L)^-1,
applied by Cholesky solves, formed only when read or for a right-hand side
wider than the batch. Dense float64; episode-sized batches (tens to hundreds).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionMismatch, InvalidDistanceMatrix, IsolatedNode, NonFiniteInput

# Bound in bytes on the difference temporary of one pairwise-distance block,
# counted in float64 elements: 1 << 17 elements = 1 MiB, whatever n. A block
# takes as many rows as fit (at least one); a 100 x 100 x 8 batch fits whole.
# No block size changes a result bit.
_PAIRWISE_BLOCK = 1 << 17


@dataclass(frozen=True)
class GraphConfig:
    """Graph-construction settings.

    alpha is the diffusion strength in (0, 1). The RBF bandwidth sigma^2 is
    the variance rule of `adjacency` unless sigma2_override pins it.
    """

    alpha: float = 0.5
    sigma2_override: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.sigma2_override is not None and not self.sigma2_override > 0.0:
            raise ValueError(f"sigma2_override must be positive, got {self.sigma2_override}")


@dataclass(frozen=True)
class Propagator:
    """Diffusion operator P = (I - alpha*L)^-1 for one node batch.

    Holds the system I - alpha*L; `apply` diffuses through it. P (`matrix`)
    is symmetric, nonnegative, with diagonal >= 1 (the Neumann series
    I + alpha*L + alpha^2*L^2 + ... of a nonnegative matrix). sigma2 is the
    RBF bandwidth of the graph; NaN when assembled from a raw L.
    """

    system: np.ndarray
    alpha: float
    sigma2: float

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """P as a dense (n, n) array, formed by solving against I on first read."""
        return numerics.solve_spd(self.system, np.eye(self.system.shape[0]))

    def apply(self, b) -> np.ndarray:
        """P @ b by Cholesky solve; past n columns of b, the formed P is cheaper."""
        if np.ndim(b) == 2 and np.shape(b)[1] > self.system.shape[0]:
            return self.matrix @ b
        return numerics.solve_spd(self.system, b)


def pairwise_sq_distances(z) -> np.ndarray:
    """Squared Euclidean distances between all rows of `z`.

    Returns an (n, n) matrix that is exactly symmetric with an exactly zero
    diagonal. The upper triangle (j >= i) is computed from the elementwise
    differences z_i - z_j, reduced over the columns in the same order for every
    block; the lower triangle is a copy of it. The copy is bit-equal to
    computing it, since fl(a - b) = -fl(b - a) squares to the same value.
    """
    z = numerics.as_matrix(z, "Z")
    n, m = z.shape
    d2 = np.empty((n, n), dtype=np.float64)
    scratch = np.empty(min(n * n * m, max(_PAIRWISE_BLOCK, n * m)), dtype=np.float64)
    start = 0
    while start < n:
        width = n - start
        stop = min(n, start + max(1, _PAIRWISE_BLOCK // (width * m)))
        diff = scratch[: (stop - start) * width * m].reshape(stop - start, width, m)
        np.subtract(z[start:stop, None, :], z[None, start:, :], out=diff)
        d2[start:stop, start:] = np.einsum("ijk,ijk->ij", diff, diff)
        d2[stop:, start:stop] = d2[start:stop, stop:].T
        start = stop
    return d2


# Bandwidth of a batch whose variance rule degenerates (see `adjacency`).
VARIANCE_FLOOR = 1e-12
FALLBACK_SIGMA2 = 1.0


def adjacency(d2, cfg: GraphConfig) -> tuple[np.ndarray, float]:
    """RBF adjacency A_ij = exp(-d2_ij / sigma^2) with a zero diagonal.

    sigma^2 is cfg.sigma2_override when given, otherwise the population
    variance (divide by count) of all n(n-1) off-diagonal squared distances,
    with FALLBACK_SIGMA2 stepping in when that variance is below
    VARIANCE_FLOOR or undefined (n = 1).

    Returns (A, sigma2_used).
    """
    d2 = np.asarray(d2, dtype=np.float64)
    if d2.ndim != 2 or d2.shape[0] != d2.shape[1] or d2.shape[0] < 1:
        raise InvalidDistanceMatrix(f"D2 must be square, got shape {d2.shape}")
    n = d2.shape[0]
    scale = 1.0 + float(np.nanmax(np.abs(d2))) if np.isfinite(d2).all() else None
    if scale is None:
        raise InvalidDistanceMatrix("D2 contains NaN or Inf entries")
    if not numerics.symmetry_defect(d2) <= 1e-9 * scale:
        raise InvalidDistanceMatrix("D2 is not symmetric")
    if not np.abs(np.diagonal(d2)).max() <= 1e-12 * scale:
        raise InvalidDistanceMatrix("D2 diagonal is not zero")
    if not d2.min() >= -1e-12 * scale:
        raise InvalidDistanceMatrix("D2 has negative entries")

    if cfg.sigma2_override is not None:
        sigma2 = float(cfg.sigma2_override)
    else:
        off = d2[~np.eye(n, dtype=bool)]
        var = float(off.var()) if off.size else 0.0
        sigma2 = var if (off.size and var >= VARIANCE_FLOOR) else FALLBACK_SIGMA2

    a = np.exp(-d2 / sigma2)
    # exp underflows to 0 for exponents beyond ~-745; keep off-diagonal weights
    # strictly positive so degrees never vanish.
    a = np.maximum(a, np.finfo(np.float64).tiny)
    np.fill_diagonal(a, 0.0)
    return a, sigma2


def normalized_laplacian(a) -> np.ndarray:
    """Degree-normalized adjacency L = D^-1/2 A D^-1/2 with D_ii = sum_j A_ij.

    For a single node the degree is zero and L is defined as [[0]]. A zero
    row sum with n >= 2 cannot happen with an RBF adjacency and signals
    corrupted input, as does a non-finite one (any NaN or Inf entry makes
    its row sum non-finite).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"A must be square, got shape {a.shape}")
    deg = a.sum(axis=1)
    finite = np.isfinite(deg)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteInput(f"row {bad} of A sums to {deg[bad]}")
    if a.shape[0] == 1:
        return np.zeros((1, 1))
    if not (deg > 0.0).all():
        bad = int(np.argmin(deg))
        raise IsolatedNode(f"node {bad} has zero degree")
    dinv = 1.0 / np.sqrt(deg)
    lap = a * dinv[:, None] * dinv[None, :]
    return (lap + lap.T) / 2.0


def propagator(lap, alpha: float, sigma2: float = math.nan) -> Propagator:
    """Propagator over the system I - alpha*L; nothing is solved here.

    I - alpha*L is positive definite for alpha in (0, 1) because the
    eigenvalues of the normalized adjacency lie in [-1, 1]; the Cholesky
    factorization in solve_spd checks that at the first `apply` or `matrix`
    read, raising NotPositiveDefinite. `sigma2` only tags the result.
    """
    lap = np.asarray(lap, dtype=np.float64)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1] or lap.shape[0] < 1:
        raise DimensionMismatch(f"L must be square, got shape {lap.shape}")
    system = np.eye(lap.shape[0]) - alpha * lap
    return Propagator(system=system, alpha=float(alpha), sigma2=float(sigma2))


def build_propagator(z, cfg: GraphConfig) -> Propagator:
    """Full chain from an embedding batch to its propagator."""
    d2 = pairwise_sq_distances(z)
    a, sigma2 = adjacency(d2, cfg)
    lap = normalized_laplacian(a)
    return propagator(lap, cfg.alpha, sigma2=sigma2)
