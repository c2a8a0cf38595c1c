"""Spark statistics tests, oracle-checked against DuckDB.

Every aggregate the feature layer consumes (value counts, joint counts)
is verified by running the equivalent SQL in DuckDB over the same input
via ``repro.oracle.assert_equivalent`` — a wrong shuffle/groupBy would be
caught here, not just "it ran".
"""
import duckdb
import pytest
from pyspark.sql import functions as F

from repro.baselines.nadeef import violating_groups
from repro.features.criteria import is_missing
from repro.features.patterns import PATTERN_LEVELS
from repro.features.stats import (
    collect_stats,
    pair_counts_sdf,
    robust_sd,
    weighted_median,
)
from repro.oracle import assert_equivalent

ATTRS = ["city", "state", "measure_code", "score", "sample"]


@pytest.fixture
def oracle_partitions(spark):
    """The conftest's default shuffle width (64), which session fixtures lower to 8."""
    previous = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "64")
    yield
    spark.conf.set("spark.sql.shuffle.partitions", previous)


@pytest.mark.parametrize("attr", ATTRS)
def test_value_counts_match_duckdb(spark, oracle_partitions, hospital_tiny, hospital_sdf, attr):
    spark_counts = (
        pair_counts_sdf(hospital_sdf, hospital_tiny.attrs)
        .where((F.col("a1") == attr) & (F.col("a2") == attr))
        .select(F.col("v1").alias("value"), F.col("count").alias("cnt"))
    )
    assert_equivalent(
        spark_counts,
        f'SELECT "{attr}" AS value, count(*) AS cnt FROM t GROUP BY "{attr}"',
        t=hospital_tiny.dirty,
    )


@pytest.mark.parametrize("pair", [("city", "state"), ("condition", "measure_code")])
def test_joint_counts_match_duckdb(spark, oracle_partitions, hospital_tiny, hospital_sdf, pair):
    a1, a2 = sorted(pair, key=hospital_tiny.attrs.index)
    spark_counts = (
        pair_counts_sdf(hospital_sdf, hospital_tiny.attrs)
        .where((F.col("a1") == a1) & (F.col("a2") == a2))
        .select("v1", "v2", F.col("count").alias("cnt"))
    )
    assert_equivalent(
        spark_counts,
        f'SELECT "{a1}" AS v1, "{a2}" AS v2, count(*) AS cnt '
        f'FROM t GROUP BY "{a1}", "{a2}"',
        t=hospital_tiny.dirty,
    )


@pytest.mark.parametrize("dataset", ["hospital_tiny", "flights_tiny"])
def test_fd_violating_groups_match_duckdb(spark, oracle_partitions, request, dataset):
    """The lhs groups NADEEF flags, read off the joint counts, are the ones
    an lhs ``GROUP BY`` with more than one distinct rhs finds."""
    ds = request.getfixturevalue(dataset)
    stats = collect_stats(ds.dirty_spark(spark), ds.attrs)
    con = duckdb.connect()
    try:
        con.register("t", ds.dirty)
        for lhs, rhs in ds.fds:
            expected = con.execute(
                f'SELECT "{lhs}" FROM t GROUP BY "{lhs}" HAVING count(DISTINCT "{rhs}") > 1'
            ).fetchall()
            assert violating_groups(stats, lhs, rhs) == {v for (v,) in expected}, (lhs, rhs)
    finally:
        con.close()


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
