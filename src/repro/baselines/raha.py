"""Raha baseline (Mahdavi et al.) — configuration-free, few-label ED.

Raha runs a library of cheap error-detection strategies over each
attribute, turns each cell into the binary vector of strategy outputs,
clusters cells per attribute, *actively* selects the tuples whose cells
cover the most unlabeled clusters for the user to label, propagates each
labeled cell's label to its cluster, and trains a per-attribute
classifier. We reproduce that pipeline with a
representative strategy library (missing check, rare value, rare L2/L3
pattern, robust numeric z-score, character-class regexes) and the
paper's minimal-human-effort setting of :data:`LABELED_TUPLES` (2)
labeled tuples — which leaves most clusters unlabeled (default clean),
reproducing Raha's low recall at that budget (paper Fig. 6 / Table III).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.datasets.base import Dataset
from repro.features.criteria import is_missing, try_float
from repro.features.patterns import l2_pattern, l3_pattern
from repro.features.stats import DatasetStats
from repro.sampling.cluster import agglomerative_clustering

# Tuples the user labels (the paper's minimal human effort).
LABELED_TUPLES = 2


def _strategy_vector(v: str, vc: dict, pc2: dict, pc3: dict, num: dict | None, n: int) -> list[float]:
    miss = is_missing(v)
    out = [
        1.0 if miss else 0.0,
        1.0 if vc.get(v, 0) <= max(1, 0.005 * n) else 0.0,
        1.0 if pc2.get(l2_pattern(v), 0) <= max(1, 0.01 * n) else 0.0,
        1.0 if pc3.get(l3_pattern(v), 0) <= max(1, 0.01 * n) else 0.0,
    ]
    if num is not None and num["frac"] >= 0.7 and not miss:
        x = try_float(v)
        out.append(1.0 if x is None or abs(x - num["median"]) / num["robust_sd"] > 4 else 0.0)
    else:
        out.append(0.0)
    out.append(1.0 if any(c.isdigit() for c in v) else 0.0)
    out.append(1.0 if any(not c.isalnum() and c != " " for c in v) else 0.0)
    return out


def detect(ds: Dataset, stats: DatasetStats, *, seed: int = 0) -> pd.DataFrame:
    n = len(ds.dirty)
    truth = ds.error_mask  # the user's tuple labels come from ground truth
    k = max(2, LABELED_TUPLES + 2)

    # --- per-attribute strategy-output clustering
    assigns: dict[str, np.ndarray] = {}
    for a in ds.attrs:
        vc = stats.value_counts[a]
        pc2 = stats.pattern_counts(a, "l2")
        pc3 = stats.pattern_counts(a, "l3")
        num = stats.numeric_summary(a)
        X = np.array([_strategy_vector(v, vc, pc2, pc3, num, n) for v in ds.dirty[a]])
        # strategy vectors are binary → few distinct rows; cluster those
        uniq, inverse = np.unique(X, axis=0, return_inverse=True)
        clustering = agglomerative_clustering(uniq, min(k, len(uniq)))
        assigns[a] = clustering.assignments[inverse]

    # --- Raha's active tuple selection: greedily pick the tuple whose
    # cells cover the most not-yet-labeled clusters across attributes
    covered: set[tuple[str, int]] = set()
    lab_idx: list[int] = []
    g = np.random.default_rng(seed)
    order = g.permutation(n)  # deterministic tie-breaking
    for _ in range(min(LABELED_TUPLES, n)):
        best, best_gain = None, -1
        for i in order:
            if i in lab_idx:
                continue
            gain = sum(
                1 for a in ds.attrs if (a, int(assigns[a][i])) not in covered
            )
            if gain > best_gain:
                best, best_gain = int(i), gain
        lab_idx.append(best)
        covered.update((a, int(assigns[a][best])) for a in ds.attrs)

    # --- propagate user labels: a cluster takes the majority label of the
    # labeled cells it contains; unlabeled clusters default to clean
    mask = {}
    for a in ds.attrs:
        assign = assigns[a]
        cluster_label: dict[int, list[bool]] = {}
        for i in lab_idx:
            cluster_label.setdefault(int(assign[i]), []).append(bool(truth[a].iloc[i]))
        col = np.zeros(n, dtype=bool)
        for c, labs in cluster_label.items():
            if sum(labs) * 2 >= len(labs) and any(labs):
                col[assign == c] = True
        mask[a] = col
    return pd.DataFrame(mask, index=ds.dirty.index)
