"""KATARA baseline (Chu et al.) — knowledge-base-powered detection.

KATARA aligns table columns to a knowledge base's relations and flags
cells contradicting KB facts. Each dataset carries the KB the paper's
setup would provide (``Dataset.kb``: partial (lhs_attr, rhs_attr) →
{lhs_value: rhs_value} mappings); datasets for which no relevant KB
exists — Flights, Beers, Rayyan, Movies in the paper — have an empty KB
and KATARA reports zeros there, matching Table III. Coverage is partial
by construction, so recall is inherently limited.
"""
from __future__ import annotations

import pandas as pd

from repro.datasets.base import Dataset


def detect(ds: Dataset) -> pd.DataFrame:
    mask = pd.DataFrame(False, index=ds.dirty.index, columns=ds.attrs)
    for (lhs_attr, rhs_attr), mapping in ds.kb.items():
        if lhs_attr not in ds.attrs or rhs_attr not in ds.attrs:
            continue
        expected = ds.dirty[lhs_attr].map(mapping)
        covered = expected.notna()
        mask.loc[covered & (ds.dirty[rhs_attr] != expected), rhs_attr] = True
    return mask
