"""Dataset statistics via one Spark aggregation pass (paper §III-B).

All of ZeroED's statistical features (value frequency, vicinity frequency,
pattern frequency), the NMI attribute-correlation matrix, and the
guideline distribution summaries derive from a single long-format
co-occurrence aggregation::

    (a1, a2, v1, v2) -> count   for every ordered attribute pair a1 <= a2

computed in the JVM by one SQL ``stack`` generator (each row yields one
``(a1, a2, v1, v2)`` row per attribute pair) followed by one
``groupBy().count()`` shuffle, so the pass starts no Python worker. The
diagonal (a1 == a2) gives per-attribute value counts; off-diagonal entries
give joint distributions. Everything else (pattern counts, null counts,
numeric summaries) is a pure function of value counts and is derived on
the driver. Cardinalities are bounded by the (small) table sizes of the
paper's benchmarks, so collecting the aggregated counts is cheap; the
raw-data pass stays in Spark and is oracle-checked against DuckDB. The
collected counts are sorted before they fill the dictionaries, so the
dictionaries' order, and the prompts rendered from it, do not depend on
the Spark plan or its partitioning.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

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


def _sql_string(text: str) -> str:
    """``text`` as a Spark SQL string literal."""
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _sql_column(name: str) -> str:
    """``name`` as a quoted Spark SQL column reference."""
    return "`" + name.replace("`", "``") + "`"


def pair_counts_sdf(sdf: DataFrame, attrs: list[str]) -> DataFrame:
    """Long-format co-occurrence counts ``(a1, a2, v1, v2, count)``, a1 <= a2."""
    pairs = [(a1, a2) for i, a1 in enumerate(attrs) for a2 in attrs[i:]]
    args = ", ".join(
        f"{_sql_string(a1)}, {_sql_string(a2)}, "
        f"string({_sql_column(a1)}), string({_sql_column(a2)})"
        for a1, a2 in pairs
    )
    return sdf.selectExpr(f"stack({len(pairs)}, {args}) as (a1, a2, v1, v2)").groupBy(
        "a1", "a2", "v1", "v2"
    ).count()


@dataclass
class DatasetStats:
    """Collected dataset statistics: value counts + joint counts + deriveds."""

    n: int
    attrs: list[str]
    value_counts: dict[str, dict[str, int]]
    joint: dict[tuple[str, str], dict[tuple[str, str], int]]
    _pattern_cache: dict = field(default_factory=dict, repr=False)
    _reversed_joint: dict = field(default_factory=dict, repr=False)

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
            groups.setdefault(ov, {})[v] = groups.setdefault(ov, {}).get(v, 0) + c
        out = {}
        for ov, dist in groups.items():
            size = sum(dist.values())
            maj, cnt = max(dist.items(), key=lambda kv: kv[1])
            out[ov] = (maj, cnt / size, size)
        return out


def collect_stats(sdf: DataFrame, attrs: list[str]) -> DatasetStats:
    """Run the Spark aggregation pass over ``attrs`` and collect into a
    :class:`DatasetStats`."""
    value_counts: dict[str, dict[str, int]] = {a: {} for a in attrs}
    joint: dict[tuple[str, str], dict[tuple[str, str], int]] = {}
    # the grouping keys are unique, so sorting whole rows orders them by
    # (a1, a2, v1, v2) whatever order the shuffle returned them in
    for a1, a2, v1, v2, cnt in sorted(pair_counts_sdf(sdf, attrs).collect()):
        if a1 == a2:  # diagonal: v1 == v2, plain value counts
            value_counts[a1][v1] = cnt
        else:
            joint.setdefault((a1, a2), {})[(v1, v2)] = cnt
    n = sum(value_counts[attrs[0]].values())
    return DatasetStats(n=n, attrs=attrs, value_counts=value_counts, joint=joint)
