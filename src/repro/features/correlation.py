"""Normalized mutual information between attributes (paper §III-B).

NMI(a_x, a_y) = I(a_x; a_y) / sqrt(H(a_x) H(a_y)), with probabilities
estimated from the value/joint counts that :mod:`repro.features.stats`
collected in its single Spark pass. The top-k most correlated attributes
per attribute form the correlative set R_a that the unified feature
representation and the labeling context use.
"""
from __future__ import annotations

import math

from repro.features.stats import DatasetStats


def entropy(counts: dict[str, int]) -> float:
    n = sum(counts.values())
    if n == 0:
        return 0.0
    return -sum((c / n) * math.log(c / n) for c in counts.values() if c > 0)


def nmi(stats: DatasetStats, a_x: str, a_y: str) -> float:
    """NMI between two attributes from collected counts (0 when degenerate)."""
    cx, cy = stats.value_counts[a_x], stats.value_counts[a_y]
    hx, hy = entropy(cx), entropy(cy)
    if hx == 0 or hy == 0:
        return 0.0
    n = stats.n
    mi = 0.0
    for (vx, vy), c in stats.joint_counts(a_x, a_y).items():
        pxy = c / n
        px, py = cx.get(vx, 0) / n, cy.get(vy, 0) / n
        if pxy > 0 and px > 0 and py > 0:
            mi += pxy * math.log(pxy / (px * py))
    return max(0.0, mi) / math.sqrt(hx * hy)


def nmi_matrix(stats: DatasetStats) -> dict[tuple[str, str], float]:
    out: dict[tuple[str, str], float] = {}
    attrs = stats.attrs
    for i, a in enumerate(attrs):
        for b in attrs[i + 1:]:
            out[(a, b)] = out[(b, a)] = nmi(stats, a, b)
    return out


# Attributes whose distinct ratio exceeds this are near-keys.
MAX_DISTINCT_RATIO = 0.5


def top_related(stats: DatasetStats, k: int) -> dict[str, list[str]]:
    """Top-k NMI-correlated attributes per attribute (k=0 → empty sets).

    Near-key attributes (distinct ratio > :data:`MAX_DISTINCT_RATIO`) are
    excluded as *context*: a unique ID column trivially "determines" every
    other attribute (H(Y|key) = 0, exactly, even on dirty data), so raw
    NMI would rank keys above genuine dependency partners — but a key
    value that occurs once carries no generalizable context for judging
    other cells. If every candidate is near-key the filter is dropped.
    """
    if k <= 0:
        return {a: [] for a in stats.attrs}
    m = nmi_matrix(stats)
    n = max(1, stats.n)
    contextual = [
        b for b in stats.attrs if len(stats.value_counts[b]) / n <= MAX_DISTINCT_RATIO
    ]
    out = {}
    for a in stats.attrs:
        pool = [b for b in contextual if b != a] or [b for b in stats.attrs if b != a]
        scored = sorted(((m[(a, b)], b) for b in pool), key=lambda t: (-t[0], t[1]))
        out[a] = [b for _, b in scored[:k]]
    return out
