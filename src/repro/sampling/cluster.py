"""Clustering-based representative sampling (paper §III-C, Table VI).

For each attribute, the cell-feature space is partitioned into
``s = n * label_rate`` clusters and the point nearest each centroid is the
representative the LLM labels. Three methods are compared in Table VI:

* ``kmeans`` — k-means++ seeding (Arthur & Vassilvitskii, SODA 2007) and
  Lloyd iterations over the collected feature matrix (the default; favors
  dense regions),
* ``agc`` — average-linkage agglomerative clustering (Lance-Williams
  updates; the paper's AGC baseline),
* ``random`` — random partition of rows into s groups with a random
  representative each (the paper's random-sampling baseline; label
  propagation over these arbitrary groups is what degrades it).

All three run with numpy on the driver, where
:func:`repro.features.assemble.collect_feature_matrices` already put every
attribute's matrix; a few thousand rows cluster in milliseconds, so no
Spark job is issued.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KMEANS_MAX_ITER = 20  # Lloyd iterations at most


@dataclass
class AttrClustering:
    """Cluster assignment for one attribute, aligned with sorted row_ids."""

    assignments: np.ndarray  # (n,) cluster id per row position
    representatives: dict[int, int]  # cluster id -> row position of its rep

    @property
    def rep_positions(self) -> list[int]:
        return sorted(self.representatives.values())


def _nearest_to_center(X: np.ndarray, assign: np.ndarray, centers: dict[int, np.ndarray]) -> dict[int, int]:
    reps: dict[int, int] = {}
    for c, mu in centers.items():
        idx = np.flatnonzero(assign == c)
        if idx.size == 0:
            continue
        d = np.linalg.norm(X[idx] - mu, axis=1)
        reps[c] = int(idx[np.argmin(d)])
    return reps


def _sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of ``X`` × rows of ``C``."""
    d = (X**2).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + (C**2).sum(axis=1)[None, :]
    return np.maximum(d, 0.0)


def kmeans_clustering(X: np.ndarray, k: int, seed: int) -> AttrClustering:
    """k-means++ seeding, then Lloyd iterations until the assignment is stable
    (at most ``KMEANS_MAX_ITER``).

    ``k`` is capped at the number of rows and of distinct rows, so every
    seed is a distinct point. Representatives are centroid-nearest.
    """
    n = X.shape[0]
    k = max(1, min(k, n, len(np.unique(X, axis=0))))
    g = np.random.default_rng(seed)
    # seeding distances are taken directly, not by the dot-product expansion,
    # so that only rows equal to a chosen seed read exactly 0
    seeds = [X[g.integers(n)]]
    d2 = ((X - seeds[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        c = X[g.choice(n, p=d2 / d2.sum())]
        seeds.append(c)
        d2 = np.minimum(d2, ((X - c) ** 2).sum(axis=1))
    C = np.vstack(seeds)
    assign = None
    for _ in range(KMEANS_MAX_ITER):
        new = np.argmin(_sq_dists(X, C), axis=1)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        for c in range(k):
            members = assign == c
            if members.any():  # an emptied cluster keeps its last center
                C[c] = X[members].mean(axis=0)
    return AttrClustering(assign, _nearest_to_center(X, assign, dict(enumerate(C))))


def agglomerative_clustering(X: np.ndarray, k: int) -> AttrClustering:
    """Average-linkage agglomerative clustering (Lance-Williams updates)."""
    n = X.shape[0]
    k = max(2, min(k, n))
    sq = np.sum(X**2, axis=1)
    D = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for _ in range(n - k):
        # inactive rows/cols hold +inf, so a flat argmin scans the whole
        # matrix without re-slicing — O(n^2) per merge, vectorized
        i, j = divmod(int(np.argmin(D)), n)
        if i > j:
            i, j = j, i
        # average-linkage distance of merged (i∪j) to every other cluster
        new = (sizes[i] * D[i] + sizes[j] * D[j]) / (sizes[i] + sizes[j])
        D[i], D[:, i] = new, new
        D[i, i] = np.inf
        D[j], D[:, j] = np.inf, np.inf
        sizes[i] += sizes[j]
        members[i].extend(members.pop(j))
    assign = np.empty(n, dtype=int)
    reps: dict[int, int] = {}
    for cid, (root, idx) in enumerate(members.items()):
        idx_arr = np.array(idx)
        assign[idx_arr] = cid
        mu = X[idx_arr].mean(axis=0)
        reps[cid] = int(idx_arr[np.argmin(np.linalg.norm(X[idx_arr] - mu, axis=1))])
    return AttrClustering(assign, reps)


def random_clustering(n: int, k: int, seed: int) -> AttrClustering:
    """Random partition + random representative per group."""
    g = np.random.default_rng(seed)
    k = max(2, min(k, n))
    assign = g.integers(0, k, n)
    reps = {}
    for c in range(k):
        idx = np.flatnonzero(assign == c)
        if idx.size:
            reps[int(c)] = int(idx[int(g.integers(0, idx.size))])
    return AttrClustering(assign, reps)


def cluster_attribute(method: str, X: np.ndarray, k: int, seed: int) -> AttrClustering:
    if method == "kmeans":
        return kmeans_clustering(X, k, seed)
    if method == "agc":
        return agglomerative_clustering(X, k)
    if method == "random":
        return random_clustering(X.shape[0], k, seed)
    raise ValueError(f"unknown sampling method {method!r}")
