"""Application-to-PL and PL-to-queue clustering (Section 5.3).

Two from-scratch algorithms:

* :func:`kmeans` -- Lloyd's algorithm with k-means++ seeding, used to
  group registered applications into at most S priority levels by the
  coefficients of their sensitivity models (Section 5.3.1: "Saba
  groups applications according to their bandwidth sensitivity using
  the K-means clustering algorithm").

* :class:`PLHierarchy` -- agglomerative clustering over PL centroids
  (Section 5.3.2): level 0 holds every PL in its own cluster; each
  subsequent level merges the two closest clusters, the merged
  cluster's coefficients being "the coordinates of the euclidean
  midpoint of the corresponding coefficients of the two clusters".
  At runtime, :meth:`PLHierarchy.best_clustering` walks the hierarchy
  until the PLs active at a switch output port fall into at most Q
  clusters -- the per-port queue mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ClusteringError


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[random.Random] = None,
    max_iters: int = 100,
) -> Tuple[List[int], np.ndarray]:
    """Lloyd's k-means with k-means++ seeding.

    Args:
        points: (n, d) array of coefficient vectors.
        k: number of clusters; if ``k >= n`` every point gets its own
            cluster (the common case: fewer active applications than
            priority levels).
        rng: seeded random source; defaults to a fixed seed so the
            controller is deterministic.
        max_iters: Lloyd iteration cap.

    Returns:
        ``(labels, centroids)`` where ``labels[i]`` is the cluster of
        point ``i`` and ``centroids`` is a (k', d) array, k' <= k.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ClusteringError("points must be a non-empty (n, d) array")
    if k < 1:
        raise ClusteringError(f"k must be >= 1: {k}")
    n = len(points)
    if k >= n:
        return list(range(n)), points.copy()
    rng = rng if rng is not None else random.Random(0)

    # k-means++ seeding.
    centroids = [points[rng.randrange(n)]]
    while len(centroids) < k:
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = float(d2.sum())
        if total <= 0:
            # All remaining points coincide with a centroid.
            centroids.append(points[rng.randrange(n)])
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        centroids.append(points[min(idx, n - 1)])
    centers = np.array(centroids)

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iters):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_labels = np.argmin(dists, axis=1)
        for c in range(k):
            members = points[new_labels == c]
            if len(members) == 0:
                # Re-seed an empty cluster at the farthest point.
                far = int(np.argmax(np.min(dists, axis=1)))
                centers[c] = points[far]
                new_labels[far] = c
            else:
                centers[c] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return [int(label) for label in labels], centers


@dataclass(frozen=True)
class HierarchyLevel:
    """One level of the agglomerative hierarchy.

    ``assignment[pl]`` is the cluster id of priority level ``pl`` at
    this level; ``centroids[cluster_id]`` its coefficient vector.
    """

    assignment: Tuple[int, ...]
    centroids: Tuple[Tuple[float, ...], ...]

    def n_clusters(self) -> int:
        return len(self.centroids)

    def clusters_of(self, pls: Sequence[int]) -> FrozenSet[int]:
        return frozenset(self.assignment[pl] for pl in pls)


class PLHierarchy:
    """Precomputed agglomerative clustering of priority levels.

    Built once per application-to-PL epoch; queried per switch output
    port at runtime ("Saba must maintain multiple PL clusters [...] and
    choose the appropriate mapping for each switch port at runtime").
    """

    def __init__(self, pl_centroids: np.ndarray) -> None:
        pl_centroids = np.asarray(pl_centroids, dtype=float)
        if pl_centroids.ndim != 2 or len(pl_centroids) == 0:
            raise ClusteringError("pl_centroids must be a non-empty (S, d) array")
        self.n_pls = len(pl_centroids)
        self.levels: List[HierarchyLevel] = []
        assignment = list(range(self.n_pls))
        centroids: List[np.ndarray] = [c.copy() for c in pl_centroids]
        self._push_level(assignment, centroids)
        while len(centroids) > 1:
            a, b = self._closest_pair(centroids)
            merged = 0.5 * (centroids[a] + centroids[b])  # euclidean midpoint
            new_centroids: List[np.ndarray] = []
            remap: Dict[int, int] = {}
            for old in range(len(centroids)):
                if old in (a, b):
                    continue
                remap[old] = len(new_centroids)
                new_centroids.append(centroids[old])
            merged_id = len(new_centroids)
            new_centroids.append(merged)
            remap[a] = merged_id
            remap[b] = merged_id
            assignment = [remap[c] for c in assignment]
            centroids = new_centroids
            self._push_level(assignment, centroids)

    def _push_level(
        self, assignment: List[int], centroids: List[np.ndarray]
    ) -> None:
        self.levels.append(
            HierarchyLevel(
                assignment=tuple(assignment),
                centroids=tuple(tuple(float(x) for x in c) for c in centroids),
            )
        )

    @staticmethod
    def _closest_pair(centroids: List[np.ndarray]) -> Tuple[int, int]:
        best = (0, 1)
        best_d = float("inf")
        for i in range(len(centroids)):
            for j in range(i + 1, len(centroids)):
                d = float(np.sum((centroids[i] - centroids[j]) ** 2))
                if d < best_d:
                    best_d = d
                    best = (i, j)
        return best

    def best_clustering(
        self, active_pls: Sequence[int], max_clusters: int
    ) -> Tuple[HierarchyLevel, Dict[int, int]]:
        """Find the shallowest level grouping ``active_pls`` into at
        most ``max_clusters`` clusters (Section 5.3.2 steps a-c).

        Returns the level and a dense mapping ``pl -> queue index``
        (queue indices enumerate the clusters actually present at this
        port, so they fit in the port's queue range).
        """
        if max_clusters < 1:
            raise ClusteringError(f"max_clusters must be >= 1: {max_clusters}")
        if not active_pls:
            raise ClusteringError("no active PLs at this port")
        for pl in active_pls:
            if not 0 <= pl < self.n_pls:
                raise ClusteringError(f"PL {pl} outside hierarchy (S={self.n_pls})")
        for level in self.levels:
            present = level.clusters_of(active_pls)
            if len(present) <= max_clusters:
                queue_index = {c: q for q, c in enumerate(sorted(present))}
                pl_to_queue = {
                    pl: queue_index[level.assignment[pl]] for pl in active_pls
                }
                return level, pl_to_queue
        raise ClusteringError("hierarchy bottom reached without a fit")
