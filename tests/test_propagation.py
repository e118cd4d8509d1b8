import re
import tracemalloc

import numpy as np
import pytest

from embedprop.diagnostics import compactness_metrics, gaussian_clusters
from embedprop.errors import DimensionMismatch, InvalidDistanceMatrix, NonFiniteInput
from embedprop.graph import GraphConfig
from embedprop.numerics import BLOCK_ELEMENTS
from embedprop.propagation import PropagationMode, propagate_embeddings

WORKED_Z = np.array([[0.0, 0.0], [1.0, 0.0]])


def test_full_mode_worked_example():
    ztilde, prop = propagate_embeddings(WORKED_Z, GraphConfig(alpha=0.5))
    np.testing.assert_allclose(
        prop.matrix, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(ztilde, [[2 / 3, 0.0], [4 / 3, 0.0]], rtol=0, atol=1e-12)
    assert prop.sigma2 == 1.0  # both pairwise distances equal, variance fallback


def test_diagonal_only_worked_example():
    ztilde, _ = propagate_embeddings(
        WORKED_Z, GraphConfig(alpha=0.5), PropagationMode.DIAGONAL_ONLY
    )
    np.testing.assert_allclose(ztilde, [[0.0, 0.0], [4 / 3, 0.0]], rtol=0, atol=1e-12)


def test_off_diagonal_only_worked_example():
    ztilde, _ = propagate_embeddings(
        WORKED_Z, GraphConfig(alpha=0.5), PropagationMode.OFF_DIAGONAL_ONLY
    )
    np.testing.assert_allclose(ztilde, [[2 / 3, 0.0], [0.0, 0.0]], rtol=0, atol=1e-12)


def test_mode_must_be_a_propagation_mode():
    # the string value of a mode is not the mode
    with pytest.raises(ValueError, match="unknown propagation mode 'full'"):
        propagate_embeddings(np.eye(3), GraphConfig(), "full")


def test_overflowing_difference_is_invalid_distance():
    # Z is finite, but rows 0 and 1 differ by 2e308, beyond the float64 maximum
    z = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidDistanceMatrix, match="D2 contains NaN or Inf"):
        propagate_embeddings(z, GraphConfig())


@pytest.mark.parametrize("z, error, message", [
    (np.array([[0.0, np.nan], [1.0, 0.0]]), NonFiniteInput, "Z contains NaN or Inf entries"),
    (np.zeros(3), DimensionMismatch,
     "Z must be 2-D with at least one row and column, got shape (3,)"),
    (np.zeros((2, 2), dtype=complex), TypeError, "Z must be real, got dtype complex128"),
], ids=["nan", "1-d", "complex"])
def test_bad_batch_errors(z, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        propagate_embeddings(z, GraphConfig())


def test_identity_mode_returns_input_exactly():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(9, 4))
    ztilde, prop = propagate_embeddings(z, GraphConfig(), PropagationMode.IDENTITY)
    assert (ztilde == z).all()
    assert prop.matrix.shape == (9, 9)  # graph still built for diagnostics


def test_single_row_batch():
    z = np.array([[3.0, -1.0]])
    ztilde, prop = propagate_embeddings(z, GraphConfig())
    np.testing.assert_allclose(ztilde, z, atol=1e-12)
    np.testing.assert_allclose(prop.matrix, [[1.0]], atol=1e-12)


def test_peak_memory_is_two_n_by_n_arrays():
    # numpy and scipy report their array allocations to tracemalloc; the chain
    # holds at most two (n, n) float64 arrays (a stage's input and its result,
    # then the system and its Cholesky factor) plus one block temporary
    n, m = 1000, 8
    z = np.random.default_rng(4).normal(size=(n, m))
    tracemalloc.start()
    try:
        propagate_embeddings(z, GraphConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n + 8 * BLOCK_ELEMENTS + (1 << 18)


def test_alpha_to_zero_recovers_input():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(10, 3))
    ztilde, _ = propagate_embeddings(z, GraphConfig(alpha=1e-12))
    assert np.abs(ztilde - z).max() <= 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(11, 3))
    perm = rng.permutation(11)
    cfg = GraphConfig(alpha=0.6)
    zt, _ = propagate_embeddings(z, cfg)
    ztp, _ = propagate_embeddings(z[perm], cfg)
    assert np.abs(ztp - zt[perm]).max() <= 1e-9


def test_mode_linearity():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(8, 5))
    cfg = GraphConfig(alpha=0.5)
    full, _ = propagate_embeddings(z, cfg, PropagationMode.FULL)
    off, _ = propagate_embeddings(z, cfg, PropagationMode.OFF_DIAGONAL_ONLY)
    diag, _ = propagate_embeddings(z, cfg, PropagationMode.DIAGONAL_ONLY)
    assert np.abs(full - (off + diag)).max() <= 1e-10


def test_relative_compaction_on_separated_clusters():
    # Propagation tightens clusters relative to their separation.
    data = gaussian_clusters(2, 60, spread=0.1 * np.sqrt(2), seed=13)
    ztilde, _ = propagate_embeddings(data.embeddings, GraphConfig(alpha=0.5))
    metrics = compactness_metrics(data.embeddings, data.labels, ztilde)
    assert metrics.intra_ratio < metrics.inter_ratio


@pytest.mark.xfail(
    strict=True,
    reason="the unnormalized propagator adds each node's (about unit-mass) "
    "neighborhood average on top of it, which inflates absolute intra-class "
    "distances (ratio converges to ~1.14 at alpha=0.5 regardless of "
    "separation); only the relative intra/inter contrast tightens",
)
def test_absolute_intra_distance_shrinks_on_separated_clusters():
    data = gaussian_clusters(2, 60, spread=0.1 * np.sqrt(2), seed=13)
    ztilde, _ = propagate_embeddings(data.embeddings, GraphConfig(alpha=0.5))
    metrics = compactness_metrics(data.embeddings, data.labels, ztilde)
    assert metrics.intra_ratio < 1.0
