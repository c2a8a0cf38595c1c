"""Tests for the experiment harnesses (fast paths only)."""
import pytest

from repro.baselines import nadeef
from repro.core.metrics import prf
from repro.core.zeroed import ZeroEDRunner
from repro.datasets.registry import PROFILES, load_dataset
from repro.exp import paper_numbers as paper
from repro.exp.tables import (
    BASELINES, REPRO_N, format_rows, repro_config, table2_rows, table3_rows,
)


def test_table2_rows_match_profiles():
    rows = table2_rows()
    assert len(rows) == len(PROFILES)
    for r in rows:
        prof = PROFILES[r["dataset"]]
        assert abs(r["err_pct"] / 100 - prof["error_rate"]) < 0.01
        assert r["paper_tuples"] == prof["paper_n"]


def test_paper_numbers_complete():
    for method, per_ds in paper.PAPER_TABLE3.items():
        assert len(per_ds) == 6, method
    assert set(paper.PAPER_TABLE4) == {
        "w/o. Guid.", "w/o. Crit.", "w/o. Corr.", "w/o. Veri.", "ZeroED",
    }
    assert len(paper.PAPER_TABLE5) == 5
    assert set(paper.PAPER_TABLE6) == {"random", "agc", "kmeans"}


def test_method_registry_follows_paper_table3():
    """Table III's methods, in the paper's order, are the baselines then
    ZeroED."""
    assert [*BASELINES, "ZeroED"] == list(paper.PAPER_TABLE3)


def test_repro_config_defaults():
    cfg = repro_config(seed=3)
    assert cfg.label_rate == 0.10
    assert cfg.seed == 3
    assert repro_config(model="qwen2.5-7b").model == "qwen2.5-7b"


def test_format_rows_renders():
    out = format_rows(
        [{"dataset": "x", "f1": 0.5}, {"dataset": "y", "f1": 0.25}],
        ["dataset", "f1"],
    )
    assert "dataset" in out and "0.500" in out and "0.250" in out


@pytest.mark.slow
def test_table3_single_method(spark):
    """The harness runs on the session it is given: it leaves the caller's
    shuffle width as it found it."""
    key = "spark.sql.shuffle.partitions"
    previous = spark.conf.get(key)
    spark.conf.set(key, "13")
    try:
        rows = table3_rows(spark, datasets=["hospital"], methods=["Katara"])
        assert spark.conf.get(key) == "13"
    finally:
        spark.conf.set(key, previous)
    assert len(rows) == 1
    assert rows[0]["method"] == "Katara"
    assert 0 <= rows[0]["f1"] <= 1


def test_baselines_start_no_spark_job_after_stats(spark, flights_tiny):
    """Table III runs the baselines on the ZeroED runner's stats: past that
    pass, no baseline starts a Spark job."""
    runner = ZeroEDRunner(spark, flights_tiny)
    runner.stats
    sc = spark.sparkContext
    group = "table3-baselines-after-stats"
    sc.setJobGroup(group, "the Table III baselines past the stats pass", False)
    try:
        for detect in BASELINES.values():
            detect(runner, 0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []


@pytest.mark.slow
def test_table3_rows_match_direct_calls(spark):
    """The shared sweep scores a baseline and ZeroED as direct calls do."""
    rows = table3_rows(spark, datasets=["flights"], methods=["Nadeef", "ZeroED"])
    assert [r["method"] for r in rows] == ["Nadeef", "ZeroED"]
    ds = load_dataset("flights", n=REPRO_N, seed=0)
    runner = ZeroEDRunner(spark, ds)
    expected = {
        "Nadeef": prf(nadeef.detect(ds, runner.stats), ds.error_mask),
        "ZeroED": runner.run(repro_config(0)).metrics,
    }
    for r in rows:
        m = expected[r["method"]]
        assert (r["prec"], r["rec"], r["f1"]) == (m["prec"], m["rec"], m["f1"])
        assert r["seconds"] >= 0
