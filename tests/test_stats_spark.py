"""Spark statistics tests, oracle-checked against DuckDB.

The Spark aggregate (each distinct tuple's count) is verified against the
equivalent ``GROUP BY`` in DuckDB over the same input, and every count
dictionary the feature layer consumes (value counts, joint counts) against
DuckDB's ``GROUP BY`` over its attributes, all through ``duckdb_rows`` — a
wrong groupBy or a wrong driver-side sum would be caught here, not just "it
ran". ``collect_stats`` is also checked against the per-pair ``stack`` query
it replaced, kept here as the reference.
"""
import uuid

import duckdb
import pandas as pd
import pytest

from repro.baselines.nadeef import violating_groups
from repro.datasets.registry import PROFILES, load_dataset
from repro.features.criteria import is_missing
from repro.features.patterns import PATTERN_LEVELS
from repro.features.stats import (
    DatasetStats,
    collect_stats,
    robust_sd,
    tuple_counts_sdf,
    weighted_median,
)

ATTRS = ["city", "state", "measure_code", "score", "sample"]


def duckdb_rows(sql: str, t: pd.DataFrame) -> list[tuple]:
    con = duckdb.connect()
    try:
        con.register("t", t)
        return con.execute(sql).fetchall()
    finally:
        con.close()


def assert_tuple_counts_match_duckdb(spark, table: pd.DataFrame) -> None:
    """``tuple_counts_sdf`` names its columns ``v0, ..., count`` and holds
    every distinct tuple of ``table`` with its count, as DuckDB's ``GROUP BY
    ALL`` finds them."""
    counts = tuple_counts_sdf(spark, table)
    assert counts.columns == [f"v{i}" for i in range(table.shape[1])] + ["count"]
    select = ", ".join(f'"{a}" AS v{i}' for i, a in enumerate(table.columns))
    expected = duckdb_rows(f"SELECT {select}, count(*) AS count FROM t GROUP BY ALL", table)
    assert sorted(map(tuple, counts.collect())) == sorted(expected)


def test_tuple_counts_match_duckdb(spark, hospital_tiny):
    """Every row of the full table is distinct, so it alone cannot show a
    wrong count; its (city, state) projection repeats tuples and, with the
    injected typos, maps some cities to more than one state."""
    assert_tuple_counts_match_duckdb(spark, hospital_tiny.dirty)
    assert_tuple_counts_match_duckdb(spark, hospital_tiny.dirty[["city", "state"]])


@pytest.mark.parametrize("attr", ATTRS)
def test_value_counts_match_duckdb(hospital_stats, hospital_tiny, attr):
    expected = duckdb_rows(f'SELECT "{attr}", count(*) FROM t GROUP BY "{attr}"', hospital_tiny.dirty)
    assert hospital_stats.value_counts[attr] == dict(expected)


@pytest.mark.parametrize("pair", [("city", "state"), ("condition", "measure_code")])
def test_joint_counts_match_duckdb(hospital_stats, hospital_tiny, pair):
    a1, a2 = sorted(pair, key=hospital_tiny.attrs.index)
    expected = duckdb_rows(
        f'SELECT "{a1}", "{a2}", count(*) FROM t GROUP BY "{a1}", "{a2}"', hospital_tiny.dirty
    )
    assert hospital_stats.joint[(a1, a2)] == {(v1, v2): c for v1, v2, c in expected}


def _sql_string(text: str) -> str:
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _sql_column(name: str) -> str:
    return "`" + name.replace("`", "``") + "`"


def reference_stats(sdf, attrs: list[str]) -> DatasetStats:
    """The per-pair form: a SQL ``stack`` of every attribute pair's values
    (a1 <= a2), one ``groupBy`` count, and the sorted rows filling the
    dictionaries."""
    pairs = [(a1, a2) for i, a1 in enumerate(attrs) for a2 in attrs[i:]]
    args = ", ".join(
        f"{_sql_string(a1)}, {_sql_string(a2)}, "
        f"string({_sql_column(a1)}), string({_sql_column(a2)})"
        for a1, a2 in pairs
    )
    counts = sdf.selectExpr(f"stack({len(pairs)}, {args}) as (a1, a2, v1, v2)").groupBy(
        "a1", "a2", "v1", "v2"
    ).count()
    value_counts: dict[str, dict[str, int]] = {a: {} for a in attrs}
    joint: dict[tuple[str, str], dict[tuple[str, str], int]] = {}
    for a1, a2, v1, v2, cnt in sorted(counts.collect()):
        if a1 == a2:
            value_counts[a1][v1] = cnt
        else:
            joint.setdefault((a1, a2), {})[(v1, v2)] = cnt
    n = sum(value_counts[attrs[0]].values())
    return DatasetStats(n=n, attrs=attrs, value_counts=value_counts, joint=joint)


def assert_same_stats(got: DatasetStats, ref: DatasetStats) -> None:
    """Equal contents, and every dictionary in the same order."""
    assert got == ref
    assert list(got.value_counts) == list(ref.value_counts)
    for a in ref.value_counts:
        assert list(got.value_counts[a].items()) == list(ref.value_counts[a].items()), a
    assert list(got.joint) == list(ref.joint)
    for pair in ref.joint:
        assert list(got.joint[pair].items()) == list(ref.joint[pair].items()), pair


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_collect_stats_matches_per_pair_reference(spark, name):
    ds = load_dataset(name, n=60, seed=1)
    reference = reference_stats(spark.createDataFrame(ds.dirty), ds.attrs)
    assert_same_stats(collect_stats(spark, ds.dirty), reference)


@pytest.mark.parametrize(
    "table",
    [
        pd.DataFrame({"a": ["x"], "b": [""], "c": ["1.5"]}),
        pd.DataFrame({"a": ["x", "y", "x", "z"], "empty": ["", "", "", ""], "b": ["1", "2", "1", "1"]}),
        pd.DataFrame({"a.b": ["p", "q", "p"], "x`y": ["1", "1", "2"], "count": ["c", "c", "d"]}),
    ],
    ids=["single-row", "all-empty-attribute", "dotted-and-backtick-names"],
)
def test_collect_stats_degenerate_tables_match_reference(spark, table):
    stats = collect_stats(spark, table)
    assert_same_stats(stats, reference_stats(spark.createDataFrame(table), list(table.columns)))
    assert stats.n == len(table)


def test_stats_pass_is_one_job_of_one_stage(spark, hospital_tiny):
    """The pass is one Spark job of one stage: its frame is coalesced to one
    partition, which the ``groupBy`` already satisfies, so no exchange splits
    it, however many partitions the input and the shuffle width have."""
    sc = spark.sparkContext
    settings = {"spark.sql.leafNodeDefaultParallelism": "4", "spark.sql.shuffle.partitions": "64"}
    previous = {k: spark.conf.get(k, None) for k in settings}
    group = f"stats-one-stage-{uuid.uuid4().hex}"
    try:
        for k, v in settings.items():
            spark.conf.set(k, v)
        # the driver-held table is scanned in 4 partitions, without a shuffle
        assert spark.createDataFrame(hospital_tiny.dirty).rdd.getNumPartitions() == 4
        sc.setJobGroup(group, "the stats pass over a 4-partition scan", False)
        collect_stats(spark, hospital_tiny.dirty)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        for k, v in previous.items():
            if v is None:
                spark.conf.unset(k)
            else:
                spark.conf.set(k, v)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert len(jobs) == 1
    assert len(tracker.getJobInfo(jobs[0]).stageIds) == 1


@pytest.mark.parametrize("dataset", ["hospital_tiny", "flights_tiny"])
def test_fd_violating_groups_match_duckdb(request, dataset):
    """The lhs groups NADEEF flags, read off the joint counts, are the ones
    an lhs ``GROUP BY`` with more than one distinct rhs finds."""
    ds = request.getfixturevalue(dataset)
    stats = request.getfixturevalue(dataset.replace("_tiny", "_stats"))
    for lhs, rhs in ds.fds:
        expected = duckdb_rows(
            f'SELECT "{lhs}" FROM t GROUP BY "{lhs}" HAVING count(DISTINCT "{rhs}") > 1', ds.dirty
        )
        assert violating_groups(stats, lhs, rhs) == {v for (v,) in expected}, (lhs, rhs)


def test_stats_n(hospital_stats, hospital_tiny):
    assert hospital_stats.n == len(hospital_tiny.dirty)


def test_value_counts_sum_to_n(hospital_stats):
    for a in hospital_stats.attrs:
        assert sum(hospital_stats.value_counts[a].values()) == hospital_stats.n


def test_pattern_counts_conserve_mass(hospital_stats):
    for level in PATTERN_LEVELS:
        pc = hospital_stats.pattern_counts("city", level)
        assert sum(pc.values()) == hospital_stats.n


def test_null_count_matches_pandas(hospital_stats, hospital_tiny):
    expected = hospital_tiny.dirty["score"].map(is_missing).sum()
    assert hospital_stats.null_count("score") == expected


def test_numeric_summary_sample(hospital_stats):
    num = hospital_stats.numeric_summary("sample")
    assert num is not None and num["frac"] > 0.9
    assert num["min"] <= num["median"] <= num["max"]
    assert num["robust_sd"] > 0


def test_numeric_summary_text_attr(hospital_stats):
    num = hospital_stats.numeric_summary("city")
    assert num is None or num["frac"] < 0.1


def test_joint_counts_symmetric_access(hospital_stats):
    ab = hospital_stats.joint_counts("city", "state")
    ba = hospital_stats.joint_counts("state", "city")
    assert sum(ab.values()) == sum(ba.values()) == hospital_stats.n
    assert ba == {(y, x): c for (x, y), c in ab.items()}
    # the reversed orientation is built once: repeated calls return one object
    assert hospital_stats.joint_counts("state", "city") is ba
    assert hospital_stats.joint_counts("city", "state") is ab


def test_stats_equality_ignores_memos(hospital_stats):
    """Two stats with the same counts stay equal after one of them has
    served a pattern read and a reversed joint read."""
    a, b = (
        DatasetStats(hospital_stats.n, hospital_stats.attrs, hospital_stats.value_counts, hospital_stats.joint)
        for _ in range(2)
    )
    assert a == b
    a.pattern_counts("city", "l2")
    a.joint_counts("state", "city")
    assert a._pattern_cache and a._reversed_joint
    assert a == b


def test_dependency_mapping_majorities(hospital_stats, hospital_tiny):
    dep = hospital_stats.dependency_mapping("state", "city")
    clean = hospital_tiny.clean
    # for a high-support city, the majority state should be the clean state
    city = clean["city"].mode()[0]
    maj, purity, size = dep[city]
    expected = clean.loc[clean["city"] == city, "state"].iloc[0]
    assert maj == expected
    assert 0 < purity <= 1 and size >= 1


def test_weighted_median_and_robust_sd():
    import numpy as np

    x = np.array([1.0, 2.0, 100.0])
    w = np.array([5.0, 5.0, 1.0])
    med = weighted_median(x, w)
    assert med in (1.0, 2.0)
    assert robust_sd(10.0, 0.0) == 1.0  # floored scale
    assert robust_sd(10.0, 2.0) == pytest.approx(2.9652)
