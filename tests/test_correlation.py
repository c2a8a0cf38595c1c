"""Tests for NMI attribute correlation."""
from collections import Counter

import pytest

from repro.features.correlation import MAX_DISTINCT_RATIO, entropy, nmi, nmi_matrix, top_related
from repro.features.stats import DatasetStats


def stats_of(columns: dict[str, list[str]]) -> DatasetStats:
    """The value and joint counts of ``columns``, keyed as ``collect_stats`` keys
    them, without Spark."""
    attrs = list(columns)
    joint = {
        (a, b): dict(Counter(zip(columns[a], columns[b])))
        for i, a in enumerate(attrs) for b in attrs[i + 1:]
    }
    return DatasetStats(
        n=len(columns[attrs[0]]),
        attrs=attrs,
        value_counts={a: dict(Counter(columns[a])) for a in attrs},
        joint=joint,
    )


def test_entropy_uniform_vs_constant():
    assert entropy({"a": 5, "b": 5}) > entropy({"a": 10}) == 0.0


def test_entropy_empty():
    assert entropy({}) == 0.0


def test_nmi_bounds(hospital_stats):
    for a in hospital_stats.attrs[:5]:
        for b in hospital_stats.attrs[:5]:
            if a != b:
                assert 0.0 <= nmi(hospital_stats, a, b) <= 1.0 + 1e-9


def test_nmi_symmetric(hospital_stats):
    assert nmi(hospital_stats, "city", "state") == pytest.approx(
        nmi(hospital_stats, "state", "city")
    )


def test_fd_pairs_score_high(hospital_stats):
    # city -> state is a real dependency; city vs score is noise
    assert nmi(hospital_stats, "city", "state") > nmi(hospital_stats, "city", "score")


def test_nmi_matrix_complete(hospital_stats):
    m = nmi_matrix(hospital_stats)
    k = len(hospital_stats.attrs)
    assert len(m) == k * (k - 1)


def test_top_related_k(hospital_stats):
    rel = top_related(hospital_stats, 2)
    for a, others in rel.items():
        assert len(others) == 2
        assert a not in others


def test_top_related_zero(hospital_stats):
    rel = top_related(hospital_stats, 0)
    assert all(v == [] for v in rel.values())


def test_top_related_picks_dependency_partner(hospital_stats):
    # measure_name is determined by measure_code; it must rank top-2
    assert "measure_code" in top_related(hospital_stats, 2)["measure_name"]


def test_top_related_skips_near_key_context():
    """A unique id ranks above an unrelated attribute by NMI (0.68 vs 0 for
    city) but is never picked as context; city's FD partner is."""
    n = 20
    stats = stats_of({
        "id": [f"r{i}" for i in range(n)],
        "city": [f"c{i % 4}" for i in range(n)],
        "state": [f"s{i % 4}" for i in range(n)],
        "noise": [f"n{i % 5}" for i in range(n)],
    })
    assert len(stats.value_counts["id"]) / n > MAX_DISTINCT_RATIO
    assert nmi(stats, "city", "id") > nmi(stats, "city", "noise")
    rel = top_related(stats, 3)
    assert rel["city"] == ["state", "noise"]
    assert rel["id"] == ["noise", "city", "state"]
    assert all("id" not in rel[a] for a in ("city", "state", "noise"))


def test_top_related_all_near_key_falls_back_to_nmi_order():
    n = 8
    stats = stats_of({
        "id": [f"r{i}" for i in range(n)],
        "code": [f"c{i % 6}" for i in range(n)],
        "grp": [f"g{i % 5}" for i in range(n)],
    })
    assert all(len(vc) / n > MAX_DISTINCT_RATIO for vc in stats.value_counts.values())
    assert top_related(stats, 2) == {
        "id": ["code", "grp"], "code": ["id", "grp"], "grp": ["id", "code"],
    }


def test_top_related_single_attribute():
    stats = stats_of({"a": ["x", "y", "x"]})
    assert top_related(stats, 2) == {"a": []}
