"""Tests for K-means and the PL hierarchy."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ClusteringError
from repro.core.clustering import PLHierarchy, kmeans


# -- kmeans --------------------------------------------------------------


def test_kmeans_fewer_points_than_k_gives_singletons():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    labels, centroids = kmeans(points, k=16)
    assert labels == [0, 1, 2]
    assert centroids.shape == (3, 2)


def test_kmeans_separates_obvious_clusters():
    rng = random.Random(1)
    points = np.array(
        [[0.0 + rng.random() * 0.1, 0.0] for _ in range(10)]
        + [[10.0 + rng.random() * 0.1, 0.0] for _ in range(10)]
    )
    labels, centroids = kmeans(points, k=2, rng=random.Random(0))
    left = {labels[i] for i in range(10)}
    right = {labels[i] for i in range(10, 20)}
    assert len(left) == 1 and len(right) == 1 and left != right


def test_kmeans_deterministic_with_seed():
    points = np.random.RandomState(7).rand(30, 3)
    l1, c1 = kmeans(points, k=4, rng=random.Random(5))
    l2, c2 = kmeans(points, k=4, rng=random.Random(5))
    assert l1 == l2
    assert np.allclose(c1, c2)


def test_kmeans_identical_points():
    points = np.ones((10, 2))
    labels, centroids = kmeans(points, k=3, rng=random.Random(0))
    assert len(labels) == 10
    assert all(0 <= label < 3 for label in labels)


def test_kmeans_validation():
    with pytest.raises(ClusteringError):
        kmeans(np.zeros((0, 2)), k=1)
    with pytest.raises(ClusteringError):
        kmeans(np.zeros((3, 2)), k=0)
    with pytest.raises(ClusteringError):
        kmeans(np.zeros(3), k=1)


@given(
    n=st.integers(min_value=1, max_value=25),
    k=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_kmeans_labels_within_range(n, k, seed):
    points = np.random.RandomState(seed).rand(n, 4)
    labels, centroids = kmeans(points, k=k, rng=random.Random(seed))
    assert len(labels) == n
    assert all(0 <= label < len(centroids) for label in labels)
    assert len(centroids) <= max(k, n)


# -- PL hierarchy --------------------------------------------------------------


def _line_hierarchy(n=8):
    """PLs arranged on a line: closest pairs merge first."""
    return PLHierarchy(np.array([[float(i)] for i in range(n)]))


def test_hierarchy_level_zero_is_singletons():
    h = _line_hierarchy(4)
    level0 = h.levels[0]
    assert level0.n_clusters() == 4
    assert level0.assignment == (0, 1, 2, 3)


def test_hierarchy_bottom_is_one_cluster():
    h = _line_hierarchy(5)
    assert h.levels[-1].n_clusters() == 1


def test_hierarchy_each_level_merges_exactly_one_pair():
    h = _line_hierarchy(6)
    sizes = [lvl.n_clusters() for lvl in h.levels]
    assert sizes == [6, 5, 4, 3, 2, 1]


def test_midpoint_merge_rule():
    """Merged centroid is 'the euclidean midpoint of the corresponding
    coefficients of the two clusters' (Section 5.3.2)."""
    h = PLHierarchy(np.array([[0.0], [1.0], [10.0]]))
    level1 = h.levels[1]
    # 0.0 and 1.0 merge first into midpoint 0.5.
    centroids = sorted(c[0] for c in level1.centroids)
    assert centroids == pytest.approx([0.5, 10.0])


def test_best_clustering_shallowest_fit():
    h = _line_hierarchy(8)
    level, mapping = h.best_clustering([0, 1, 2, 3], max_clusters=4)
    # Level 0 already fits.
    assert level is h.levels[0]
    assert sorted(mapping.values()) == [0, 1, 2, 3]


def test_best_clustering_descends_until_fit():
    h = _line_hierarchy(8)
    level, mapping = h.best_clustering(list(range(8)), max_clusters=2)
    assert len(set(mapping.values())) <= 2
    assert set(mapping) == set(range(8))


def test_best_clustering_queue_indices_dense():
    h = _line_hierarchy(8)
    _, mapping = h.best_clustering([0, 7], max_clusters=8)
    assert sorted(set(mapping.values())) == [0, 1]


def test_best_clustering_subset_can_fit_shallow():
    """Only the PLs active at the port matter: two far-apart PLs fit in
    two queues at level 0 even if the whole PL set would not."""
    h = _line_hierarchy(8)
    level, mapping = h.best_clustering([0, 7], max_clusters=2)
    assert level is h.levels[0]


def test_best_clustering_validation():
    h = _line_hierarchy(4)
    with pytest.raises(ClusteringError):
        h.best_clustering([], max_clusters=2)
    with pytest.raises(ClusteringError):
        h.best_clustering([0], max_clusters=0)
    with pytest.raises(ClusteringError):
        h.best_clustering([9], max_clusters=2)


def test_hierarchy_validation():
    with pytest.raises(ClusteringError):
        PLHierarchy(np.zeros((0, 2)))
    with pytest.raises(ClusteringError):
        PLHierarchy(np.zeros(3))


@given(
    n=st.integers(min_value=1, max_value=16),
    q=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=50, deadline=None)
def test_best_clustering_always_fits(n, q, seed):
    points = np.random.RandomState(seed).rand(n, 4)
    h = PLHierarchy(points)
    active = list(range(n))
    _, mapping = h.best_clustering(active, max_clusters=q)
    assert len(set(mapping.values())) <= q
    assert set(mapping) == set(active)
    assert all(0 <= v < q for v in mapping.values())
