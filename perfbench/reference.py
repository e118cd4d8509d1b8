"""Independent plain-numpy reference for the correctness checks.

Distances use the difference form, the bandwidth is the population variance
of the off-diagonal squared distances, L = D^-1/2 A D^-1/2, and every
diffusion is `np.linalg.solve(I - alpha L, rhs)` (LU, no inverse). The
library forms P = (I - alpha L)^-1 by Cholesky instead, so results agree to
rounding, not bit for bit; the checks below never require bit identity.
"""

import numpy as np

ALPHA = 0.5  # GraphConfig default, which every workload uses
VARIANCE_FLOOR = 1e-12
FALLBACK_SIGMA2 = 1.0
# A prediction is only compared when the reference's top-2 score margin is at
# least this share of its top score; closer calls may flip on rounding.
MARGIN_RTOL = 1e-6
# Largest accepted max-abs error of propagated embeddings or label scores,
# relative to their max-abs value. I - alpha L has condition number <= 3 at
# alpha = 0.5, so a correct float64 chain sits near 1e-14.
RTOL = 1e-9
_ROW_BLOCK = 64


def sq_distances(z: np.ndarray) -> np.ndarray:
    n = z.shape[0]
    d2 = np.empty((n, n))
    for lo in range(0, n, _ROW_BLOCK):
        diff = z[lo:lo + _ROW_BLOCK, None, :] - z[None, :, :]
        d2[lo:lo + _ROW_BLOCK] = (diff * diff).sum(axis=2)
    return d2


def system_matrix(z: np.ndarray) -> np.ndarray:
    """I - alpha L for the RBF graph on the rows of z."""
    n = z.shape[0]
    d2 = sq_distances(z)
    off = d2[~np.eye(n, dtype=bool)]
    var = off.var()
    sigma2 = var if var >= VARIANCE_FLOOR else FALLBACK_SIGMA2
    a = np.maximum(np.exp(-d2 / sigma2), np.finfo(np.float64).tiny)
    np.fill_diagonal(a, 0.0)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(n) - ALPHA * (a * dinv[:, None] * dinv[None, :])


def diffuse(z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.solve(system_matrix(z), rhs)


def lp_scores(ztilde: np.ndarray, rows, classes, n_way: int) -> np.ndarray:
    y = np.zeros((ztilde.shape[0], n_way))
    y[np.asarray(rows), np.asarray(classes)] = 1.0
    return diffuse(ztilde, y)


def rel_error(got, ref) -> float:
    return float(np.abs(np.asarray(got) - ref).max() / np.abs(ref).max())


def decided(scores: np.ndarray) -> np.ndarray:
    """Rows whose top-2 margin is clear of rounding (see MARGIN_RTOL)."""
    top2 = np.sort(scores, axis=1)[:, -2:]
    return (top2[:, 1] - top2[:, 0]) >= MARGIN_RTOL * np.abs(top2[:, 1])


def episode_scores(z, ep, ssl: bool):
    """Reference query scores for one episode, plus whether pass 1 was decided.

    `ep` holds the library's node order: support (class-major), query,
    unlabeled; `labeled_mask` flags the labeled supports. For SSL, pass-1
    pseudo-labels feed pass 2, so an undecided pool row makes the whole
    episode undecided.
    """
    n_way, k_shot = ep["n_way"], ep["k_shot"]
    n_sup, n_query = n_way * k_shot, len(ep["query"])
    ztilde = diffuse(z, z)
    mask = np.asarray(ep["labeled_mask"], dtype=bool)
    ref_rows = np.flatnonzero(mask)
    ref_classes = np.repeat(np.arange(n_way), k_shot)[ref_rows]
    scores = lp_scores(ztilde, ref_rows, ref_classes, n_way)
    pass1_decided = True
    if ssl:
        pool = np.concatenate([np.flatnonzero(~mask),
                               np.arange(n_sup + n_query, z.shape[0])])
        pass1_decided = bool(decided(scores[pool]).all())
        rows = np.concatenate([ref_rows, pool])
        classes = np.concatenate([ref_classes, np.argmax(scores[pool], axis=1)])
        scores = lp_scores(ztilde, rows, classes, n_way)
    return scores[n_sup:n_sup + n_query], pass1_decided
