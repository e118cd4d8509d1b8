"""Embedding propagation: replace each row by a propagator-weighted sum of the batch.

FULL diffuses through `Propagator.apply`; the ablations read P's off-diagonal
or diagonal entries, or skip propagation (identity). The graph is built and
returned in every mode so callers can still inspect it or score with it.
"""

import enum

import numpy as np

from . import graph, numerics
from .graph import GraphConfig, Propagator


class PropagationMode(enum.Enum):
    """Which part of the propagator multiplies the embeddings."""

    FULL = "full"
    OFF_DIAGONAL_ONLY = "offdiag"
    DIAGONAL_ONLY = "diag"
    IDENTITY = "identity"


def propagate_embeddings(
    z, cfg: GraphConfig, mode: PropagationMode = PropagationMode.FULL
) -> tuple[np.ndarray, Propagator]:
    """Propagate a batch of embeddings through its similarity graph.

    Builds the graph on `z` and returns (z_tilde, propagator) where
    z_tilde = M @ z and M is the propagator P (FULL), P with its diagonal
    zeroed (OFF_DIAGONAL_ONLY), the diagonal of P alone (DIAGONAL_ONLY), or
    the identity (IDENTITY, which returns `z` unchanged).

    P is applied as-is, without row normalization, so propagated rows are
    weighted sums rather than convex combinations and their norms change.
    A `mode` that is not a PropagationMode raises ValueError before any graph.
    """
    if not isinstance(mode, PropagationMode):
        raise ValueError(f"unknown propagation mode {mode!r}")
    prop = graph.build_propagator(z, cfg)  # raises for a bad z, before it is read here
    z = numerics.as_real(z, "Z")
    if mode is PropagationMode.FULL:
        ztilde = prop.apply(z)
    elif mode is PropagationMode.OFF_DIAGONAL_ONLY:
        off = prop.matrix
        np.fill_diagonal(off, 0.0)
        ztilde = off @ z
    elif mode is PropagationMode.DIAGONAL_ONLY:
        ztilde = np.diagonal(prop.matrix)[:, None] * z
    else:
        ztilde = z.copy()
    return ztilde, prop
