import time

import hypothesis
import numpy as np
import pytest

from embedprop.diagnostics import gaussian_clusters
from embedprop.episodes import Episode, EvalConfig

SESSION_START = time.perf_counter()

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


def pytest_collection_modifyitems(config, items):
    # The acceptance module summarizes the suite (including total wall time):
    # run it after everything else.
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


@pytest.fixture
def episode_past_the_set():
    """A 30-row set, a two-class episode whose last query row is 99, and its config."""
    data = gaussian_clusters(2, 15, spread=0.3, seed=0)
    ep = Episode(
        classes=("c000", "c001"),
        support=np.array([[0], [15]]),
        query=np.array([[1], [99]]),
        unlabeled=np.empty(0, dtype=np.intp),
        labeled_mask=np.ones((2, 1), dtype=bool),
    )
    return data, ep, EvalConfig(n_way=2, k_shot=1, q_queries=1, episodes=1)
