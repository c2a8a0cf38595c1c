"""Time the statistics pass on full-width Tax at a given size.

From the repository root, with ``src/`` importable (``PYTHONPATH=src``):

    python -m jobs.stats_scale [n]

Starts a ``local[1]`` Spark session, warms it up with one pass over a
200-row table, then runs :func:`~repro.features.stats.collect_stats` once
over Tax with every attribute (``n`` tuples, default 20000, data seed 0).
Prints one JSON object: the pass's wall seconds, building the Spark frame
from the table included, the driver's peak RSS before and after it, and
the rise, in MB. The JVM is another process and is not counted.
"""
import json
import resource
import sys
import time

from pyspark.sql import SparkSession

from repro.datasets.registry import load_dataset
from repro.features.stats import collect_stats

WARMUP_N = 200


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(spark: SparkSession, n: int) -> dict:
    """One ``collect_stats`` over full-width Tax at ``n`` tuples, after a
    warm-up pass at :data:`WARMUP_N`."""
    warm = load_dataset("tax", n=WARMUP_N, seed=1)
    collect_stats(spark, warm.dirty)
    ds = load_dataset("tax", n=n, seed=0)
    before = _peak_rss_mb()
    start = time.perf_counter()
    stats = collect_stats(spark, ds.dirty)
    seconds = time.perf_counter() - start
    after = _peak_rss_mb()
    return {
        "n": n,
        "attrs": len(ds.attrs),
        "pair_keys": sum(len(d) for d in stats.joint.values()),
        "seconds": round(seconds, 3),
        "peak_rss_mb_before": round(before, 1),
        "peak_rss_mb_after": round(after, 1),
        "rss_rise_mb": round(after - before, 1),
    }


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print("usage: stats_scale.py [n]", file=sys.stderr)
        return 2
    n = int(argv[0]) if argv else 20000
    spark = (
        SparkSession.builder.master("local[1]")
        .appName("stats_scale")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    try:
        print(json.dumps(measure(spark, n)))
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
