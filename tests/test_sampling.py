"""Tests for clustering-based representative sampling."""
import numpy as np
import pytest

from repro.sampling.cluster import (
    agglomerative_clustering,
    cluster_attribute,
    kmeans_clustering,
    random_clustering,
)


def _blobs(n=60, seed=0):
    g = np.random.default_rng(seed)
    a = g.normal(0, 0.1, (n // 2, 4))
    b = g.normal(5, 0.1, (n - n // 2, 4))
    return np.vstack([a, b])


def test_agglomerative_two_blobs():
    X = _blobs()
    res = agglomerative_clustering(X, 2)
    assert len(set(res.assignments)) == 2
    # the two halves must be separated
    assert len(set(res.assignments[:30])) == 1
    assert len(set(res.assignments[30:])) == 1


def test_agglomerative_representatives_in_cluster():
    X = _blobs()
    res = agglomerative_clustering(X, 4)
    for c, rep in res.representatives.items():
        assert res.assignments[rep] == c


def test_agglomerative_k_clamp():
    X = _blobs(n=5)
    res = agglomerative_clustering(X, 50)
    assert len(set(res.assignments)) == 5


def test_random_clustering_deterministic():
    a = random_clustering(100, 10, seed=7)
    b = random_clustering(100, 10, seed=7)
    assert (a.assignments == b.assignments).all()
    assert a.representatives == b.representatives


def test_random_representatives_members():
    res = random_clustering(50, 8, seed=1)
    for c, rep in res.representatives.items():
        assert res.assignments[rep] == c


def test_kmeans_clustering_spark(spark, hospital_sdf, hospital_tiny, hospital_stats):
    from repro.features.assemble import build_context, collect_feature_matrices, features_sdf
    from repro.features.correlation import top_related

    ctx = build_context(hospital_stats, top_related(hospital_stats, 1), {a: [] for a in hospital_stats.attrs})
    _, mats = collect_feature_matrices(features_sdf(hospital_sdf, ctx), hospital_tiny.attrs)
    res = kmeans_clustering(mats["city"], 8, seed=0)
    n = len(hospital_tiny.dirty)
    assert res.assignments.shape == (n,)
    assert 2 <= len(set(res.assignments)) <= 8
    for c, rep in res.representatives.items():
        assert res.assignments[rep] == c
    # centroid-nearest: the representative is no farther than cluster mean distance
    for c, rep in res.representatives.items():
        idx = np.flatnonzero(res.assignments == c)
        centroid = mats["city"][idx].mean(axis=0)
        d_rep = np.linalg.norm(mats["city"][rep] - centroid)
        d_all = np.linalg.norm(mats["city"][idx] - centroid, axis=1)
        assert d_rep <= d_all.mean() + 1e-9


def test_cluster_attribute_dispatch():
    X = _blobs()
    assert len(cluster_attribute("random", X, 5, 0).representatives) <= 5
    assert len(set(cluster_attribute("agc", X, 3, 0).assignments)) == 3
    with pytest.raises(ValueError):
        cluster_attribute("bogus", X, 3, 0)


def test_kmeans_fewer_rows_than_clusters():
    X = _blobs(n=5)
    res = kmeans_clustering(X, 50, seed=0)
    assert res.assignments.shape == (5,)
    assert len(set(res.assignments)) == 5
    assert sorted(res.rep_positions) == list(range(5))


def test_kmeans_identical_rows():
    X = np.ones((20, 3))
    res = kmeans_clustering(X, 4, seed=0)
    assert set(res.assignments) == {0}
    assert len(res.representatives) == 1


def test_kmeans_clusters_at_most_distinct_rows():
    base = _blobs(n=6)
    X = np.vstack([base] * 5)  # 30 rows, 6 distinct
    res = kmeans_clustering(X, 10, seed=3)
    assert len(set(res.assignments)) <= 6
    assert len(res.representatives) <= 6
    for c, rep in res.representatives.items():
        assert res.assignments[rep] == c


def test_kmeans_seed_determinism():
    X = np.random.default_rng(4).normal(size=(120, 5))
    a = kmeans_clustering(X, 9, seed=11)
    b = kmeans_clustering(X, 9, seed=11)
    assert (a.assignments == b.assignments).all()
    assert a.representatives == b.representatives


def test_kmeans_separates_blobs():
    X = _blobs()
    res = kmeans_clustering(X, 2, seed=0)
    assert len(set(res.assignments[:30])) == 1
    assert len(set(res.assignments[30:])) == 1
    assert res.assignments[0] != res.assignments[-1]
