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
Spark job is issued. k-means does its distance arithmetic once per
distinct feature row (a matrix repeats rows, since a feature row is a
function of a few cell values) and makes the assignments and picks the
representatives the per-row computation makes. Its distance arithmetic
runs in place: the seeding updates reuse one distinct-rows × dims buffer,
and a Lloyd step sums the dot-product expansion into its one
distinct-rows × k result. That result is not computed in row or column
blocks, which would bound its memory: BLAS blocks a smaller product
differently, and the last bits of the distances, and through near-ties
the assignments, would change.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.assemble import distinct_rows

KMEANS_MAX_ITER = 20  # Lloyd iterations at most


@dataclass
class AttrClustering:
    """Cluster assignment for one attribute, aligned with the table's row positions."""

    assignments: np.ndarray  # (n,) cluster id per row position
    representatives: dict[int, int]  # cluster id -> row position of its rep

    @property
    def rep_positions(self) -> list[int]:
        return sorted(self.representatives.values())


def _sq_dists(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of ``X`` × rows of ``C``, by the
    dot-product expansion ``‖x‖² - 2 x·c + ‖c‖²`` clipped at 0.

    The expansion is summed in place in the one ``(len(X), len(C))`` result:
    negating ``2 x·c`` and adding ``‖x‖²`` to it is the same IEEE operation
    as subtracting it from ``‖x‖²``, so the bits are those of the expression
    form.
    """
    d = X @ C.T
    d *= -2.0
    d += (X**2).sum(axis=1)[:, None]
    d += (C**2).sum(axis=1)[None, :]
    return np.maximum(d, 0.0, out=d)


def _member_means(X: np.ndarray, assign: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Each non-empty cluster's mean over its member rows, taken in row
    order; an emptied cluster keeps its center from ``C``."""
    C = C.copy()
    order = np.argsort(assign, kind="stable")
    ends = np.cumsum(np.bincount(assign, minlength=len(C)))
    members = X[order]
    start = 0
    for c, end in enumerate(ends):
        if end > start:
            C[c] = members[start:end].mean(axis=0)
        start = end
    return C


def kmeans_clustering(X: np.ndarray, k: int, seed: int) -> AttrClustering:
    """k-means++ seeding, then Lloyd iterations until the assignment is stable
    (at most ``KMEANS_MAX_ITER``).

    ``k`` is capped at the number of distinct rows (by value), so every seed
    is a distinct point. Representatives are centroid-nearest: the lowest
    row position among the rows nearest their cluster's centroid.

    Distances are computed once per distinct row
    (:func:`~repro.features.assemble.distinct_rows`) and gathered back to
    rows, so seeding draws from the same per-row distribution and every
    copy of a row lands in the same cluster. The centroids stay means over
    all member rows in row order: a mean of distinct rows weighted by their
    counts sums in another order, which changes the last bits of the
    centroids and, through near-ties, which rows are chosen.
    """
    codes, first = distinct_rows(X)
    U = X[first]
    n = X.shape[0]
    k = max(1, min(k, len(np.unique(U, axis=0))))
    g = np.random.default_rng(seed)
    # seeding distances are taken directly, not by the dot-product expansion,
    # so that only rows equal to a chosen seed read exactly 0
    seeds = [X[g.integers(n)]]
    diff = np.empty_like(U)
    d2 = np.square(np.subtract(U, seeds[0], out=diff), out=diff).sum(axis=1)
    for _ in range(1, k):
        p = d2[codes]
        c = X[g.choice(n, p=p / p.sum())]
        seeds.append(c)
        np.minimum(d2, np.square(np.subtract(U, c, out=diff), out=diff).sum(axis=1), out=d2)
    C = np.vstack(seeds)
    assign = None
    for _ in range(KMEANS_MAX_ITER):
        new = np.argmin(_sq_dists(U, C), axis=1)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        C = _member_means(X, assign[codes], C)
    # per cluster, the nearest distinct row; ties keep the lowest code, whose
    # first position is the lowest (codes are in first-occurrence order)
    d = np.linalg.norm(U - C[assign], axis=1)
    o = np.lexsort((d, assign))
    heads = o[np.r_[True, assign[o[1:]] != assign[o[:-1]]]]
    reps = {int(assign[i]): int(first[i]) for i in heads}
    return AttrClustering(assign[codes], reps)


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
