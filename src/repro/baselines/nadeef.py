"""NADEEF baseline (Ebaid et al.) — rule/pattern violation detection.

NADEEF consumes user-supplied quality rules and flags cells participating
in violations. We feed it the published-style inputs the paper grants it
(the dataset's functional dependencies and per-attribute regex patterns,
from ``Dataset.fds`` / ``Dataset.patterns``) and detect:

* FD violations read off the dataset's joint counts: for each FD
  lhs→rhs, every lhs and rhs cell in an lhs-group holding more than one
  distinct rhs value (an impure group of ``dependency_mapping``) is
  flagged (NADEEF marks all cells participating in a violation — the
  majority-correct cells among them are what caps its precision),
* pattern violations: cells not matching their attribute's regex.
"""
from __future__ import annotations

import re

import pandas as pd

from repro.datasets.base import Dataset
from repro.features.stats import DatasetStats


def violating_groups(stats: DatasetStats, lhs: str, rhs: str) -> set[str]:
    """The lhs values whose rows hold more than one distinct rhs value."""
    groups = stats.dependency_mapping(rhs, lhs)
    return {v for v, (_majority, purity, _size) in groups.items() if purity < 1}


def detect(ds: Dataset, stats: DatasetStats) -> pd.DataFrame:
    mask = pd.DataFrame(False, index=ds.dirty.index, columns=ds.attrs)
    # --- FD violations
    for lhs, rhs in ds.fds:
        bad = violating_groups(stats, lhs, rhs)
        if bad:
            in_bad = ds.dirty[lhs].isin(bad)
            mask.loc[in_bad, rhs] = True
            mask.loc[in_bad, lhs] = True
    # --- pattern violations (regex rules from the public — partial — rule
    # set; ``nadeef_attrs`` limits which attributes have published rules)
    ruled = ds.nadeef_attrs if ds.nadeef_attrs is not None else list(ds.patterns)
    for attr in ruled:
        pattern = ds.patterns.get(attr)
        if pattern is None or attr not in mask.columns:
            continue
        rx = re.compile(pattern)
        viol = ~ds.dirty[attr].map(lambda v: bool(rx.fullmatch(v)))
        mask.loc[viol, attr] = True
    return mask
