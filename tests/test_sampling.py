"""Tests for clustering-based representative sampling."""
import numpy as np
import pytest

from repro.sampling.cluster import (
    _sq_dists,
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


def test_kmeans_clustering_spark(hospital_tiny, hospital_stats):
    from repro.features.assemble import build_context, collect_feature_matrices
    from repro.features.correlation import top_related

    ctx = build_context(hospital_stats, top_related(hospital_stats, 1), {a: [] for a in hospital_stats.attrs})
    _, mats = collect_feature_matrices(hospital_tiny.dirty, ctx)
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


# ------------------------------------------- k-means over distinct rows


def reference_kmeans(X, k, seed):
    """Per-row k-means: every row's distances and the representatives
    computed row by row, centroids as boolean-mask means."""
    n = X.shape[0]
    k = max(1, min(k, n, len(np.unique(X, axis=0))))
    g = np.random.default_rng(seed)
    seeds = [X[g.integers(n)]]
    d2 = ((X - seeds[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        c = X[g.choice(n, p=d2 / d2.sum())]
        seeds.append(c)
        d2 = np.minimum(d2, ((X - c) ** 2).sum(axis=1))
    C = np.vstack(seeds)
    assign = None
    for _ in range(20):
        d = (X**2).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + (C**2).sum(axis=1)[None, :]
        new = np.argmin(np.maximum(d, 0.0), axis=1)
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        for c in range(k):
            members = assign == c
            if members.any():
                C[c] = X[members].mean(axis=0)
    reps = {}
    for c, mu in enumerate(C):
        idx = np.flatnonzero(assign == c)
        if idx.size:
            reps[c] = int(idx[np.argmin(np.linalg.norm(X[idx] - mu, axis=1))])
    return assign, reps


def assert_matches_reference(X, k, seed):
    res = kmeans_clustering(X, k, seed)
    ref_assign, ref_reps = reference_kmeans(X, k, seed)
    assert np.array_equal(res.assignments, ref_assign), (k, seed)
    assert res.representatives == ref_reps, (k, seed)
    return res


@pytest.fixture(scope="module")
def hospital_mats(hospital_stats, hospital_tiny):
    from repro.features.assemble import build_context, collect_feature_matrices
    from repro.features.correlation import top_related
    from repro.llm.model import SimulatedLLM
    from repro.llm.reasoning import derive_criteria

    related = top_related(hospital_stats, 2)
    llm = SimulatedLLM(seed=0)
    samples = hospital_tiny.dirty.sample(40, random_state=0).to_dict("records")
    criteria = {a: derive_criteria(llm, a, samples, related[a]) for a in hospital_stats.attrs}
    _, mats = collect_feature_matrices(hospital_tiny.dirty, build_context(hospital_stats, related, criteria))
    return mats


def test_kmeans_matches_per_row_reference_on_hospital(hospital_mats):
    repeated = 0
    for a, X in hospital_mats.items():
        repeated += len(np.unique(X, axis=0)) < len(X)
        for k, seed in [(7, 0), (15, 1), (15, 2)]:
            assert_matches_reference(X, k, seed)
    assert repeated  # some matrices repeat rows, so the distinct path is taken


def test_kmeans_matches_per_row_reference_on_tiled_ties():
    """A lattice tiled many times: many rows sit at equal distances from two
    centers, and every cluster's nearest rows tie."""
    g = np.random.default_rng(5)
    lattice = np.array([[i, j] for i in range(4) for j in range(3)], dtype=float) / 3.0
    for rep in (3, 40):
        X = np.tile(lattice, (rep, 1))[g.permutation(rep * len(lattice))]
        for k, seed in [(2, 0), (3, 1), (4, 2), (6, 3), (12, 4), (30, 5)]:
            assert_matches_reference(X, k, seed)


def test_kmeans_matches_per_row_reference_on_tiled_blobs():
    g = np.random.default_rng(6)
    base = np.round(_blobs(n=24, seed=2), 1)
    X = np.vstack([base[g.permutation(24)] for _ in range(25)])
    for k, seed in [(3, 0), (5, 1), (8, 2), (20, 3)]:
        assert_matches_reference(X, k, seed)


def test_kmeans_signed_zeros_count_as_one_row():
    """-0.0 and 0.0 are distinct bytes but one value: the cap on k counts
    values, so no seed is drawn from an all-zero distribution."""
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [1.0, -0.0], [0.0, 1.0], [2.0, 2.0]])
    for k, seed in [(3, 0), (6, 1), (10, 2)]:
        res = assert_matches_reference(X, k, seed)
        assert len(res.representatives) <= 3
    res = assert_matches_reference(X[[0, 1, 4]], 3, 0)
    assert set(res.assignments) == {0}


def test_kmeans_matches_per_row_reference_when_degenerate():
    assert_matches_reference(_blobs(n=5), 50, 0)  # n < k
    assert_matches_reference(np.ones((20, 3)), 4, 0)  # all rows identical
    assert_matches_reference(np.vstack([_blobs(n=6)] * 5), 10, 3)  # k > distinct rows


def test_sq_dists_in_place_matches_expression_form():
    """The in-place expansion has the bits of the one-expression form."""
    g = np.random.default_rng(8)
    for n, d, k in [(40, 3, 5), (300, 57, 15), (500, 12, 64)]:
        X = np.round(g.normal(size=(n // 4, d)), 3)[g.integers(0, n // 4, n)]
        C = np.vstack([X[:k // 2], g.normal(size=(k - k // 2, d))])
        ref = (X**2).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + (C**2).sum(axis=1)[None, :]
        assert np.array_equal(_sq_dists(X, C).view(np.uint64), np.maximum(ref, 0.0).view(np.uint64))
