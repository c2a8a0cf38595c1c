"""Shared test fixtures: tiny datasets and amortized pipeline stages.

Heavy Spark artifacts (dataset stats, a full ZeroED runner on a tiny
hospital instance) are session-scoped so the many tests that inspect them
pay the cost once.
"""
from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.exp.tables import SHUFFLE_PARTITIONS

TINY_N = 150


@pytest.fixture(scope="session")
def hospital_tiny():
    return load_dataset("hospital", n=TINY_N, seed=0)


@pytest.fixture(scope="session")
def flights_tiny():
    return load_dataset("flights", n=TINY_N, seed=0)


@pytest.fixture(scope="session")
def hospital_sdf(spark, hospital_tiny):
    sdf = hospital_tiny.dirty_spark(spark).cache()
    sdf.count()
    return sdf


@pytest.fixture(scope="session")
def hospital_stats(spark, hospital_sdf, hospital_tiny):
    from repro.features.stats import collect_stats

    spark.conf.set("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
    return collect_stats(hospital_sdf, hospital_tiny.attrs)


@pytest.fixture(scope="session")
def flights_stats(spark, flights_tiny):
    from repro.features.stats import collect_stats

    spark.conf.set("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
    return collect_stats(flights_tiny.dirty_spark(spark), flights_tiny.attrs)


@pytest.fixture(scope="session")
def hospital_runner(spark, hospital_tiny):
    from repro.core.zeroed import ZeroEDRunner

    spark.conf.set("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
    return ZeroEDRunner(spark, hospital_tiny)


@pytest.fixture(scope="session")
def hospital_result(hospital_runner):
    from repro.core.zeroed import ZeroEDConfig

    return hospital_runner.run(ZeroEDConfig(label_rate=0.1))
