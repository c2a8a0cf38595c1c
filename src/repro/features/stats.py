"""Dataset statistics via one Spark aggregation pass (paper §III-B).

All of ZeroED's statistical features (value frequency, vicinity frequency,
pattern frequency), the NMI attribute-correlation matrix, and the
guideline distribution summaries derive from the counts of the table's
distinct tuples::

    (v_1, ..., v_k) -> count

computed in the JVM by one ``groupBy(<every attribute>).count()`` over the
frame coalesced to one partition (:func:`tuple_counts_sdf`): one Spark
stage with no exchange, whatever the session's shuffle width. With Arrow on
the pass starts no Python worker, and the collected result has one row per
distinct tuple, however many attribute pairs the statistics read. The pass
is ZeroED's one Spark boundary: it takes the driver-held table, and this
module alone builds the Spark frame from it and names its columns there.
On the driver, :func:`collect_stats` sums the tuple counts into each
attribute's value counts and each attribute pair's joint counts, as exact
integer sums. Everything else (pattern counts, null counts, numeric
summaries) is a pure function of value counts and is derived on the
driver. Cardinalities are bounded by the (small) table sizes of the
paper's benchmarks, so collecting the distinct tuples is cheap; the
raw-data pass stays in Spark and is oracle-checked against DuckDB. Each
dictionary is filled in sorted key order, so the dictionaries' order, and
the prompts rendered from it, do not depend on the Spark plan or its
partitioning.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.features.criteria import is_missing, try_float
from repro.features.patterns import PATTERN_LEVELS


def weighted_median(x: np.ndarray, w: np.ndarray) -> float:
    """Median of values ``x`` with integer/float weights ``w``."""
    order = np.argsort(x)
    cw = np.cumsum(w[order])
    return float(x[order][np.searchsorted(cw, cw[-1] / 2.0)])


def robust_sd(median: float, mad: float) -> float:
    """MAD-based robust scale, floored so degenerate data keeps a margin."""
    sd = 1.4826 * mad
    return sd if sd > 0 else max(1.0, abs(median) * 0.05)


def tuple_counts_sdf(spark: SparkSession, table: pd.DataFrame) -> DataFrame:
    """Each distinct tuple of the string table ``table`` and its count:
    ``(v0, ..., v<k-1>, count)``, ``v<i>`` holding column ``i``'s value.

    The frame is built under these positional names, so an attribute name
    is never parsed: ``a.b`` is not read as a struct field. It is coalesced
    to one partition before the ``groupBy``, which that single partition
    already satisfies: the plan is scan, coalesce, partial and final
    aggregate, one stage of one task with no exchange.
    """
    names = [f"v{i}" for i in range(table.shape[1])]
    frame = spark.createDataFrame(table, schema=names).coalesce(1)
    return frame.groupBy(*names).count()


def _sum_by(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-negative ``keys`` in ascending order, and the sum of
    ``counts`` over each."""
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(counts[order], starts)


@dataclass
class DatasetStats:
    """Collected dataset statistics: value counts + joint counts + deriveds."""

    n: int
    attrs: list[str]
    value_counts: dict[str, dict[str, int]]
    joint: dict[tuple[str, str], dict[tuple[str, str], int]]
    _pattern_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _reversed_joint: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------ derived
    def pattern_counts(self, attr: str, level: str) -> dict[str, int]:
        key = (attr, level)
        if key not in self._pattern_cache:
            fn = PATTERN_LEVELS[level]
            agg: dict[str, int] = {}
            for v, c in self.value_counts[attr].items():
                p = fn(v)
                agg[p] = agg.get(p, 0) + c
            self._pattern_cache[key] = agg
        return self._pattern_cache[key]

    def null_count(self, attr: str) -> int:
        return sum(c for v, c in self.value_counts[attr].items() if is_missing(v))

    def numeric_summary(self, attr: str) -> dict | None:
        """Weighted numeric summary with robust location/scale.

        Median and MAD are reported alongside mean/std because error
        detection must derive plausible ranges from data that *contains*
        the outliers it is looking for — a 100× outlier inflates the std
        enough to hide itself, while the MAD-based scale stays put.
        """
        vals, weights = [], []
        total = 0
        for v, c in self.value_counts[attr].items():
            if is_missing(v):
                continue
            total += c
            x = try_float(v)
            if x is not None:
                vals.append(x)
                weights.append(c)
        if not total or not vals:
            return None
        w = np.array(weights, dtype=float)
        x = np.array(vals, dtype=float)
        mean = float(np.average(x, weights=w))
        std = float(np.sqrt(np.average((x - mean) ** 2, weights=w)))
        med = weighted_median(x, w)
        mad = weighted_median(np.abs(x - med), w)
        return {
            "frac": float(w.sum()) / total,
            "mean": mean,
            "std": std,
            "median": med,
            "mad": mad,
            "robust_sd": robust_sd(med, mad),
            "min": float(x.min()),
            "max": float(x.max()),
        }

    def joint_counts(self, a1: str, a2: str) -> dict[tuple[str, str], int]:
        """Joint counts with keys ordered as ``(v_of_a1, v_of_a2)``. The
        reversed orientation of a collected pair is built once and kept."""
        if (a1, a2) in self.joint:
            return self.joint[(a1, a2)]
        if (a1, a2) not in self._reversed_joint:
            sw = self.joint.get((a2, a1), {})
            self._reversed_joint[(a1, a2)] = {(v1, v2): c for (v2, v1), c in sw.items()}
        return self._reversed_joint[(a1, a2)]

    def dependency_mapping(self, attr: str, other: str) -> dict[str, tuple[str, float, int]]:
        """For each value of ``other``: (majority value of attr, purity, size)."""
        groups: dict[str, dict[str, int]] = {}
        for (ov, v), c in self.joint_counts(other, attr).items():
            groups.setdefault(ov, {})[v] = c
        out = {}
        for ov, dist in groups.items():
            size = sum(dist.values())
            maj, cnt = max(dist.items(), key=lambda kv: kv[1])
            out[ov] = (maj, cnt / size, size)
        return out


def collect_stats(spark: SparkSession, table: pd.DataFrame) -> DatasetStats:
    """Run the Spark aggregation pass over the string table ``table`` and
    collect into a :class:`DatasetStats` over its columns."""
    attrs = list(table.columns)
    rows = tuple_counts_sdf(spark, table).collect()
    counts = np.array([r[-1] for r in rows], dtype=np.int64)
    # each attribute's distinct values, sorted, and each tuple's rank among
    # them: ascending ranks, and ascending rank pairs, are sorted values and
    # sorted value pairs
    levels, ranks = zip(*(
        np.unique(np.array([r[i] for r in rows], dtype=object), return_inverse=True)
        for i in range(len(attrs))
    ))
    value_counts = {
        a: dict(zip(levels[i].tolist(), _sum_by(ranks[i], counts)[1].tolist()))
        for i, a in enumerate(attrs)
    }
    joint: dict[tuple[str, str], dict[tuple[str, str], int]] = {}
    pairs = [(i, j) for i in range(len(attrs)) for j in range(i + 1, len(attrs))]
    for i, j in sorted(pairs, key=lambda p: (attrs[p[0]], attrs[p[1]])):
        keys, sums = _sum_by(ranks[i] * len(levels[j]) + ranks[j], counts)
        ri, rj = np.divmod(keys, len(levels[j]))
        values = zip(levels[i][ri].tolist(), levels[j][rj].tolist())
        joint[(attrs[i], attrs[j])] = dict(zip(values, sums.tolist()))
    n = sum(value_counts[attrs[0]].values())
    return DatasetStats(n=n, attrs=attrs, value_counts=value_counts, joint=joint)
