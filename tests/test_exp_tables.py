"""Tests for the experiment harnesses (fast paths only)."""
import pytest

from repro.core.zeroed import ZeroEDRunner
from repro.datasets.registry import PROFILES
from repro.exp import paper_numbers as paper
from repro.exp.tables import (
    BASELINES, SHUFFLE_PARTITIONS, _run_baseline, format_rows, repro_config, table2_rows, table3_rows,
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
    rows = table3_rows(spark, datasets=["hospital"], methods=["Katara"])
    assert len(rows) == 1
    assert rows[0]["method"] == "Katara"
    assert 0 <= rows[0]["f1"] <= 1


def test_baselines_start_no_spark_job_after_stats(spark, flights_tiny):
    """Table III runs the baselines on the ZeroED runner's stats: past that
    pass, no baseline starts a Spark job."""
    spark.conf.set("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
    runner = ZeroEDRunner(spark, flights_tiny)
    stats = runner.stats
    sc = spark.sparkContext
    group = "table3-baselines-after-stats"
    sc.setJobGroup(group, "the Table III baselines past the stats pass", False)
    try:
        for method in BASELINES:
            _run_baseline(method, spark, flights_tiny, stats, 0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
