"""Similarity-graph construction over an embedding batch.

The chain is: squared Euclidean distances -> RBF adjacency with a variance
bandwidth -> degree-normalized adjacency -> propagator P = (I - alpha*L)^-1,
applied by `numerics.solve_spd`, which solves or multiplies by the formed P by
the width of the right-hand side. Dense float64; episode-sized batches.

The distance kernel is exact (no Gram expansion). It works by row blocks of
the upper triangle: each block copies its rows into one reused scratch buffer
of about 1 MiB, subtracts the other rows in place, and reduces with an einsum
that writes into the result.

Symmetry is built once, in the distance kernel, not repaired: every later
stage is elementwise, so A, L and I - alpha*L stay exactly symmetric.

Each stage allocates only its own result and works on it in place, without
writing its input. `build_propagator` drops each input once the next stage
holds its result, so an n-row batch peaks at two (n, n) float64 arrays plus
block temporaries of about 1 MiB (at least one row of n x m differences per
distance worker): the system and its Cholesky factor during a solve (16 n^2
bytes; 6.4 GB at n = 20 000). Forming P (`Propagator.matrix`, or an `apply`
to a right-hand side wider than the batch) holds four: the system, the
identity, the factor and P. Each raises ResourceLimit before allocating
when its arrays exceed physical memory, by `numerics.check_memory`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InvalidDistanceMatrix, IsolatedNode, NonFiniteInput

@dataclass(frozen=True)
class GraphConfig:
    """Graph-construction settings.

    alpha is the diffusion strength in (0, 1). The RBF bandwidth sigma^2 is
    the variance rule of `adjacency` unless sigma2_override pins it. Both are
    real numbers (`numerics.as_number`), else ValueError, and stored as the
    floats it returns.
    """

    alpha: float = 0.5
    sigma2_override: float | None = None

    def __post_init__(self):
        alpha = numerics.as_number(self.alpha, "alpha")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        override = self.sigma2_override
        if override is not None:
            override = numerics.as_number(override, "sigma2_override")
            if not 0.0 < override < math.inf:
                raise ValueError(f"sigma2_override must be finite and positive, got {override}")
            object.__setattr__(self, "sigma2_override", override)


@dataclass(frozen=True)
class Propagator:
    """Diffusion operator P = (I - alpha*L)^-1 for one node batch.

    Holds the system I - alpha*L and no solved P; `apply` and each `matrix`
    read solve against it. P is symmetric, nonnegative, with diagonal >= 1 (the
    Neumann series I + alpha*L + ... of a nonnegative matrix). sigma2 is the
    RBF bandwidth of the graph; NaN when assembled from a raw L.
    """

    system: np.ndarray
    alpha: float
    sigma2: float

    @property
    def matrix(self) -> np.ndarray:
        """P as a dense (n, n) array, formed by solving against I on each read.

        Raises ResourceLimit, before allocating, when the four (n, n) arrays
        this holds (the system, I, the factor and P) exceed physical memory.
        """
        n = self.system.shape[0]
        numerics.check_memory(n, 4, "forming P")
        return numerics.solve_spd(self.system, np.eye(n))

    def apply(self, b) -> np.ndarray:
        """P @ b by `numerics.solve_spd`; NonFiniteInput when b holds NaN or Inf.

        A b wider than the batch forms P, so it raises ResourceLimit like `matrix`.
        """
        return numerics.solve_spd(self.system, b)


def pairwise_sq_distances(z) -> np.ndarray:
    """Squared Euclidean distances between all rows of `z`.

    Returns an (n, n) matrix that is exactly symmetric with an exactly zero
    diagonal. The upper triangle (j >= i) is computed by row blocks from the
    elementwise differences z_i - z_j, reduced over the columns in the same
    order for every block; the lower triangle is a copy of it. The copy is
    bit-equal to computing it, since fl(a - b) = -fl(b - a) squares to the same
    value.

    Each block copies its rows z_i into a scratch buffer that stays within
    its budget (at least one row), subtracts the rows z_j from it in place,
    and has the einsum write its sums straight into d2. The copy and the
    subtract each broadcast one operand, which runs faster than one subtract
    broadcasting both, and give the same bits: each difference is one IEEE
    subtraction either way.

    The n * n * m differences are one job for `numerics.workers_for`, whose
    workers walk `numerics.upper_shares` by `numerics.parallel_map`, each with
    its own scratch of BLOCK_ELEMENTS // workers elements (at least one row).
    Every entry is still one einsum over the same columns in the same order,
    so no split changes a bit.
    """
    z = numerics.as_matrix(z, "Z")
    n, m = z.shape
    d2 = np.empty((n, n), dtype=np.float64)
    shares = numerics.upper_shares(n, m, numerics.workers_for(n * n * m))
    budget = numerics.BLOCK_ELEMENTS // len(shares)

    def rows(share):
        # a difference beyond the float64 maximum is Inf, which `adjacency`
        # rejects, so it need not warn here; each thread sets its own state
        with np.errstate(over="ignore"):
            for start, stop, scratch in numerics.upper_blocks(n, m, *share, budget):
                diff = scratch.reshape(stop - start, n - start, m)
                np.copyto(diff, z[start:stop, None, :])
                np.subtract(diff, z[None, start:, :], out=diff)
                np.einsum("ijk,ijk->ij", diff, diff, out=d2[start:stop, start:])
                d2[stop:, start:stop] = d2[start:stop, stop:].T

    numerics.parallel_map(rows, shares, len(shares))
    return d2


# Bandwidth of a batch whose variance rule degenerates (see `adjacency`).
VARIANCE_FLOOR = 1e-12
FALLBACK_SIGMA2 = 1.0


def adjacency(d2, cfg: GraphConfig) -> tuple[np.ndarray, float]:
    """RBF adjacency A_ij = exp(-d2_ij / sigma^2) with a zero diagonal.

    sigma^2 is cfg.sigma2_override when given, otherwise the population
    variance (divide by count) of all n(n-1) off-diagonal squared distances,
    with FALLBACK_SIGMA2 stepping in when that variance is below
    VARIANCE_FLOOR or undefined (n = 1). `d2` is never written.

    Returns (A, sigma2_used).
    """
    d2 = numerics.as_square(d2, "D2", InvalidDistanceMatrix)
    lo, scale = numerics.check_symmetric(d2, "D2", InvalidDistanceMatrix, InvalidDistanceMatrix)
    if not np.abs(np.diagonal(d2)).max() <= 1e-12 * scale:
        raise InvalidDistanceMatrix("D2 diagonal is not zero")
    if not lo >= -1e-12 * scale:
        raise InvalidDistanceMatrix("D2 has negative entries")

    if cfg.sigma2_override is not None:
        sigma2 = float(cfg.sigma2_override)
    else:
        var = _off_diagonal_variance(d2)
        sigma2 = var if var >= VARIANCE_FLOOR else FALLBACK_SIGMA2

    a = np.divide(d2, -sigma2)
    np.exp(a, out=a)
    # exp underflows to 0 for exponents beyond ~-745; keep off-diagonal weights
    # strictly positive so degrees never vanish.
    np.maximum(a, np.finfo(np.float64).tiny, out=a)
    np.fill_diagonal(a, 0.0)
    return a, sigma2


def _off_diagonal_variance(d2: np.ndarray) -> float:
    """np.var of the off-diagonal entries in row-major order; 0.0 when n = 1.

    Runs np.var's own steps (sum, divide, subtract, square, sum, divide) in
    place on one copy, so the result is bit-equal to
    d2[~np.eye(n, dtype=bool)].var() without its second n^2 temporary.
    """
    n = d2.shape[0]
    if n == 1:
        return 0.0
    # between consecutive diagonal entries of the flat matrix lie the n
    # off-diagonal entries of one row; flatten copies even when reshape gives
    # a view (n = 2), so `d2` is never written
    off = d2.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].flatten()
    mean = np.add.reduce(off, keepdims=True)
    np.true_divide(mean, off.size, out=mean)
    np.subtract(off, mean, out=off)
    np.square(off, out=off)
    return float(np.add.reduce(off) / off.size)


def normalized_laplacian(a) -> np.ndarray:
    """Degree-normalized adjacency L = D^-1/2 A D^-1/2 with D_ii = sum_j A_ij.

    Formed as A * outer(d, d) with d = 1/sqrt(D). Since fl(d_i d_j) =
    fl(d_j d_i), L is exactly symmetric whenever A is, as every A of
    `adjacency` is; an asymmetric A is not averaged, and fails `solve_spd`.

    For a single node the degree is zero and L is defined as [[0]]. With
    n >= 2, a non-finite degree (any NaN or Inf entry) signals corrupted
    input, as does a zero or subnormal one, whose d_i d_j could overflow
    (RBF degrees are >= (n - 1) * tiny).
    """
    a = numerics.as_square(a, "A")
    deg = a.sum(axis=1)
    finite = np.isfinite(deg)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteInput(f"row {bad} of A sums to {deg[bad]}")
    if a.shape[0] == 1:
        return np.zeros((1, 1))
    if not (deg >= np.finfo(np.float64).tiny).all():
        bad = int(np.argmin(deg))
        raise IsolatedNode(f"node {bad} has zero or subnormal degree {deg[bad]}")
    dinv = 1.0 / np.sqrt(deg)
    lap = np.multiply.outer(dinv, dinv)
    lap *= a
    return lap


def propagator(lap, alpha: float, sigma2: float = math.nan) -> Propagator:
    """Propagator over the system I - alpha*L; nothing is solved here.

    I - alpha*L is positive definite for alpha in (0, 1) because the
    eigenvalues of the normalized adjacency lie in [-1, 1]; the Cholesky
    factorization in solve_spd checks that at the first `apply` or `matrix`
    read, raising NotPositiveDefinite. `sigma2` only tags the result. `alpha`
    is a real number (`numerics.as_number`) in (0, 1), else ValueError.
    """
    alpha = numerics.as_number(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    lap = numerics.as_square(lap, "L")
    # the bits of np.eye(n) - alpha * lap: 0.0 - x (never -x, which would turn
    # +0.0 into -0.0) off the diagonal and 1.0 - x on it
    system = np.multiply(lap, alpha, order="C")
    diagonal = 1.0 - np.diagonal(system)
    np.subtract(0.0, system, out=system)
    np.fill_diagonal(system, diagonal)
    return Propagator(system=system, alpha=alpha, sigma2=float(sigma2))


def build_propagator(z, cfg: GraphConfig) -> Propagator:
    """Full chain from an embedding batch to its propagator.

    Each stage is called on the previous one's result alone, so no more than
    two (n, n) arrays are alive at once. Raises ResourceLimit, before
    allocating any of them, when those two exceed the physical memory.
    """
    z = numerics.as_matrix(z, "Z")
    numerics.check_memory(z.shape[0], 2, "a graph")
    a, sigma2 = adjacency(pairwise_sq_distances(z), cfg)
    lap = normalized_laplacian(a)
    del a
    return propagator(lap, cfg.alpha, sigma2=sigma2)
