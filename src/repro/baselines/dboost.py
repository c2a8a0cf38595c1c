"""dBoost baseline (Pit-Claudel et al.) — statistical outlier detection.

dBoost models each attribute with simple statistical profiles (Gaussian /
histogram over tuple expansions) and flags low-probability cells. Our
reimplementation keeps that core with the statistical configuration the
paper cites: per attribute,

* numeric attributes: robust z-score (median/MAD) beyond :data:`Z_CUT`, plus
  unparseable values in predominantly numeric columns,
* all attributes: histogram outliers — values and L2 patterns whose
  frequency falls below a small fraction of the attribute's dominant
  mass (rare-bin detection),
Missing placeholders are *not* flagged — dBoost has no notion of NULL
errors (paper Table I) — and rule violations are invisible to it since
swapped-in values are statistically normal.

It uses *no* labels or constraints — only the Spark-aggregated statistics
— so like the original it over-flags valid rare values (moderate
precision) and misses consistency errors entirely.
"""
from __future__ import annotations

import pandas as pd

from repro.datasets.base import Dataset
from repro.features.criteria import is_missing, try_float
from repro.features.patterns import l2_pattern
from repro.features.stats import DatasetStats

Z_CUT = 4.0
# A value or pattern bin is rare at or below this share of the rows.
RARE_SHARE = 0.01


def detect(ds: Dataset, stats: DatasetStats) -> pd.DataFrame:
    """Boolean detection mask (rows × attrs)."""
    n = stats.n
    mask = {}
    for a in ds.attrs:
        num = stats.numeric_summary(a)
        is_numeric = num is not None and num["frac"] >= 0.7
        vc = stats.value_counts[a]
        pc = stats.pattern_counts(a, "l2")
        # value histograms are meaningful only on low-cardinality columns
        discrete = len(vc) / max(1, n) <= 0.3
        rare_cut = max(1, int(RARE_SHARE * n))
        col = []
        for v in ds.dirty[a]:
            if is_missing(v):
                # dBoost has no notion of missing-value errors (Table I:
                # Missing & Typos ✗) — NULL bins are just frequent values
                col.append(False)
                continue
            flag = False
            if is_numeric:
                x = try_float(v)
                if x is None:
                    flag = True
                else:
                    z = abs(x - num["median"]) / num["robust_sd"]
                    flag = z > Z_CUT
            # histogram outliers: rare value bins in discrete columns,
            # rare pattern bins everywhere
            if not flag and discrete and vc.get(v, 0) <= rare_cut:
                flag = True
            if not flag and pc.get(l2_pattern(v), 0) <= rare_cut:
                flag = True
            col.append(flag)
        mask[a] = col
    return pd.DataFrame(mask, index=ds.dirty.index)
