"""Dense numeric primitives backing the graph construction.

Everything works on plain float64 numpy arrays. Episode batches are at most a
few hundred rows, so direct dense factorizations are the right tool; there is
deliberately no sparse or iterative path here. `solve_spd` is the library's
one call into LAPACK, and it calls the Cholesky pair (dpotrf, dpotrs) itself.
It finds them in scipy's LAPACK extension, which this module loads alone at
import; scipy.linalg, which exports the same routine objects, is never
imported. That saves each process about 0.27 s and 18 MB of RSS.

The shared input and resource rules live here, once: the real-input rule
(`as_real`, which every float64 coercion of a caller's array goes through),
the index rule (`as_index`, which every integer coercion of a caller's index
array goes through), the matrix and square matrix checks, the finite and
symmetric matrix check with its one tolerance (`check_symmetric`, made by
`graph.adjacency` and `solve_spd`), and the physical-memory check that `graph`
and `solve_spd` make before allocating (n, n) arrays.

So does the thread policy. `thread_count` reads EP_THREADS and the usable
CPUs; `thread_pool` is the one pool factory, and it marks its threads. A
kernel split by `upper_shares` runs inline on a marked thread, so the
episode pool of `episodes.evaluate` and a kernel's own pool never nest.
"""

import importlib.machinery
import importlib.util
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    ResourceLimit,
)

# scipy's LAPACK extension, loaded on its own. scipy.linalg.lapack exports
# these very routine objects, but importing it runs all of scipy.linalg. The
# top-level `import scipy` sets up the paths of scipy's bundled libraries.
_LINALG_DIR = os.path.join(scipy.__path__[0], "linalg")
_spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [_LINALG_DIR])
if _spec is None:
    raise ImportError(f"no LAPACK extension _flapack in {_LINALG_DIR} (scipy {scipy.__version__})")
lapack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lapack)

# Relative asymmetry tolerated before a matrix is rejected as not symmetric.
SYMMETRY_RTOL = 1e-9

# Bound on the temporary of one row block, in float64 elements: 1 << 17
# elements = 1 MiB, whatever n. No block size changes a result bit.
BLOCK_ELEMENTS = 1 << 17

# Worker count when EP_THREADS is unset, before the cap at the usable CPUs.
_DEFAULT_MAX_WORKERS = 8

# Marks the threads of `thread_pool`; a kernel called on one runs inline.
_pool_thread = threading.local()


def as_real(a, name: str) -> np.ndarray:
    """Coerce `a` to a float64 array; raise TypeError when its dtype is complex.

    numpy's own cast drops an imaginary part with no more than a warning.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise TypeError(f"{name} must be real, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def as_index(a, name: str) -> np.ndarray:
    """Coerce `a` to an intp array; raise TypeError when its dtype is not integer.

    numpy's own cast truncates floats and reads bools as 0 and 1 without a
    word. An empty array of any dtype passes: np.asarray([]) is float64.
    """
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers, got dtype {a.dtype}")
    return a.astype(np.intp, copy=False)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce `a` to a float64 2-D array with >= 1 row/column and finite entries."""
    m = as_real(a, name)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(
            f"{name} must be 2-D with at least one row and column, got shape {m.shape}"
        )
    if not np.isfinite(m).all():
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    return m


def as_square(a, name: str, error=DimensionMismatch) -> np.ndarray:
    """Coerce `a` to a float64 (n, n) array with n >= 1; raise `error` otherwise."""
    m = as_real(a, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise error(f"{name} must be square, got shape {m.shape}")
    return m


def physical_memory() -> int | None:
    """Bytes of physical memory reported by os.sysconf, or None where it reports none."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(n: int, arrays: int, what: str) -> None:
    """Raise ResourceLimit when `arrays` (n, n) float64 arrays exceed physical memory."""
    need = arrays * 8 * n * n
    available = physical_memory()
    if available is not None and need > available:
        raise ResourceLimit(
            f"{what} over {n} rows needs about {need} bytes ({arrays} {n} x {n} float64 "
            f"arrays), more than the {available} bytes of physical memory"
        )


def thread_count() -> int:
    """Worker count: EP_THREADS, else min(cpus, 8); never above the usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    raw = os.environ.get("EP_THREADS")
    if raw is None or raw == "":
        return min(cpus, _DEFAULT_MAX_WORKERS)
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"EP_THREADS must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"EP_THREADS must be a positive integer, got {raw!r}")
    return min(n, cpus)


def _mark_pool_thread() -> None:
    _pool_thread.marked = True


def thread_pool(workers: int) -> ThreadPoolExecutor:
    """The library's one pool factory: `workers` threads, each marked so that
    a kernel called on it runs inline and pools never nest."""
    return ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_thread)


def upper_shares(n: int, depth: int) -> list:
    """Contiguous row ranges [lo, hi) of an (n, n) upper triangle, one per worker.

    Splits only when that adds no blocks: when n * depth * workers >=
    BLOCK_ELEMENTS, so that one row of `depth` elements per entry fills a
    share's budget of BLOCK_ELEMENTS // workers. The cuts give each share an
    equal part of the triangle's area. On a `thread_pool` thread, and below
    that size, the one share is every row.
    """
    workers = 1
    # a triangle within one block never splits, so it need not read EP_THREADS
    if n * n * depth >= BLOCK_ELEMENTS and not getattr(_pool_thread, "marked", False):
        workers = min(n, thread_count())
    if n * depth * workers < BLOCK_ELEMENTS:
        return [(0, n)]
    # rows [0, r] of the upper triangle hold area[r] entries
    area = np.cumsum(np.arange(n, 0, -1))
    cuts = np.searchsorted(area, area[-1] * np.arange(1, workers) / workers) + 1
    bounds = [0, *sorted(set(cuts.tolist()) - {n}), n]
    return list(zip(bounds[:-1], bounds[1:]))


def for_each_share(task, shares) -> None:
    """task(lo, hi, budget) for every share, each with budget BLOCK_ELEMENTS //
    len(shares): the first on the calling thread, the others on a pool
    started for this call. numpy's error state does not follow a task into a
    pool thread, so `task` sets its own."""
    budget = BLOCK_ELEMENTS // len(shares)
    if len(shares) == 1:
        task(*shares[0], budget)
        return
    with thread_pool(len(shares) - 1) as pool:
        futures = [pool.submit(task, lo, hi, budget) for lo, hi in shares[1:]]
        task(*shares[0], budget)
        for future in futures:
            future.result()


def upper_blocks(n: int, depth: int = 1, lo: int = 0, hi: int | None = None,
                 budget: int = BLOCK_ELEMENTS):
    """Row blocks of rows [lo, hi) of the upper triangle of an (n, n) matrix,
    with a scratch buffer.

    Yields (start, stop, scratch) for rows [start, stop) x columns [start, n),
    diagonal included. A block takes as many rows as keep rows x (n - start) x
    depth within `budget` (at least one row); `scratch` is a flat float64
    buffer of exactly that many elements, reused by every block of the walk.
    """
    hi = n if hi is None else hi
    buf = np.empty(min((hi - lo) * (n - lo) * depth, max(budget, (n - lo) * depth)))
    start = lo
    while start < hi:
        stop = min(hi, start + max(1, budget // ((n - start) * depth)))
        yield start, stop, buf[: (stop - start) * (n - start) * depth]
        start = stop


def symmetry_defect(m: np.ndarray) -> float:
    """Largest absolute difference between square `m` and its transpose.

    Works over the upper triangle by row blocks. `check_symmetric` rejects
    NaN and Inf first. Finite mirrored entries can still differ by more than
    the float64 maximum; their difference overflows to Inf without a
    warning, and an Inf defect fails every tolerance.
    """
    defect = 0.0
    with np.errstate(over="ignore"):
        for start, stop, scratch in upper_blocks(m.shape[0]):
            diff = scratch.reshape(stop - start, -1)
            np.subtract(m[start:stop, start:], m[start:, start:stop].T, out=diff)
            defect = np.maximum(defect, np.abs(diff, out=diff).max())
    return float(defect)


def check_symmetric(m, name: str, nonfinite=NonFiniteInput, asymmetric=NotSymmetric) -> tuple:
    """Raise unless square float64 `m` is finite and symmetric within tolerance.

    NaN or Inf raises `nonfinite`; a `symmetry_defect` above SYMMETRY_RTOL *
    (1 + max |m|) raises `asymmetric`. Returns (min of m, 1 + max |m|).
    """
    # NaN and Inf reach the maximum or the minimum; max |m| is one of them
    hi, lo = float(m.max()), float(m.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise nonfinite(f"{name} contains NaN or Inf entries")
    scale = 1.0 + max(abs(hi), abs(lo))
    tol = SYMMETRY_RTOL * scale
    defect = symmetry_defect(m)
    if not defect <= tol:
        raise asymmetric(f"{name} is not symmetric: asymmetry {defect:.3e} exceeds tolerance {tol:.3e}")
    return lo, scale


def solve_spd(m, b) -> np.ndarray:
    """Solve M X = B for symmetric positive definite M.

    Calls LAPACK's Cholesky factorization (dpotrf) and solve (dpotrs)
    directly. The factorization doubles as the positive-definiteness check:
    dpotrf stops at the first nonpositive pivot and reports its leading minor
    in `info`, and `info > 0` raises NotPositiveDefinite naming that minor.
    An illegal-argument `info < 0` cannot arise for the validated square
    float64 M. A B with more columns than rows is multiplied by M^-1, solved
    against I, which beats the wide solve; that branch holds four (n, n)
    arrays (M, its factor, I and M^-1) and raises ResourceLimit before
    factoring when they exceed physical memory. The result is a pure function
    of the inputs (same bits in, same bits out).

    The factorization reads the upper triangle of M. An M that is symmetric
    only within SYMMETRY_RTOL is solved as the symmetric matrix that mirrors
    its upper triangle.

    Parameters
    ----------
    m : (n, n) array
        Symmetric positive definite coefficient matrix.
    b : (n,) or (n, k) array
        Right-hand side(s).

    Raises
    ------
    TypeError (complex M or B), DimensionMismatch, NonFiniteInput,
    NotSymmetric, NotPositiveDefinite, ResourceLimit
    """
    m = as_square(m, "M")
    b = as_real(b, "B")
    if b.ndim not in (1, 2) or b.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"B must have {m.shape[0]} rows, got shape {b.shape}"
        )
    if not np.isfinite(b).all():
        raise NonFiniteInput("B contains NaN or Inf entries")
    check_symmetric(m, "M")
    wide = b.ndim == 2 and b.shape[1] > b.shape[0]
    if wide:
        check_memory(b.shape[0], 4, "forming M^-1")
    # m.T is m's memory in Fortran order, so the routine's copy is a plain
    # one; its lower triangle is m's upper one, which equals m's lower one
    # bit for bit when m is exactly symmetric, as every system the chain builds is
    factor, info = lapack.dpotrf(m.T, lower=True, clean=False)
    if info > 0:
        raise NotPositiveDefinite(f"M is not positive definite: leading minor {info} of {len(m)}")
    x, _ = lapack.dpotrs(factor, np.eye(b.shape[0]) if wide else b, lower=True)
    return x @ b if wide else x
