"""Dataset container shared by the whole reproduction.

A :class:`Dataset` carries the dirty and clean versions of a table (all
cells normalized to strings, missing = ``""``), plus the side metadata the
*baselines* consume: functional dependencies (NADEEF/Katara/RV injection),
per-attribute regex patterns (NADEEF), a knowledge base (Katara), and which
attributes are numeric (perfbench's ``make_dataset`` reads it, and outlier
injection reads the same list from the schema metadata; dBoost finds
numeric attributes through ``DatasetStats.numeric_summary``).

ZeroED itself never reads the metadata or the clean table — only the dirty
table. The clean table is used exclusively by the evaluation metrics and by
baselines whose published form receives that input (e.g. Raha's 2 labeled
tuples).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd


@dataclass
class Dataset:
    """One benchmark dataset: dirty/clean tables plus baseline metadata."""

    name: str
    dirty: pd.DataFrame
    clean: pd.DataFrame
    fds: list[tuple[str, str]] = field(default_factory=list)
    patterns: dict[str, str] = field(default_factory=dict)
    kb: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)
    numeric_attrs: list[str] = field(default_factory=list)
    # Attributes whose regex rules the public NADEEF rule sets would cover;
    # None means "all declared patterns". The published rule collections are
    # deliberately partial (the paper notes NADEEF's "limited but precise
    # pattern criteria" on Movies), so NADEEF sees only this subset.
    nadeef_attrs: list[str] | None = None
    error_types: pd.DataFrame | None = None  # "" or MV/T/PV/O/RV per cell

    @property
    def attrs(self) -> list[str]:
        return list(self.dirty.columns)

    @property
    def n_tuples(self) -> int:
        return len(self.dirty)

    @property
    def error_mask(self) -> pd.DataFrame:
        """Boolean frame: cell is erroneous iff dirty differs from clean."""
        return self.dirty.ne(self.clean)

    @property
    def error_rate(self) -> float:
        m = self.error_mask
        return float(m.to_numpy().sum()) / m.size

    def error_rate_by_type(self) -> dict[str, float]:
        """Fraction of all cells carrying each injected error type."""
        if self.error_types is None:
            return {}
        flat = self.error_types.to_numpy().ravel()
        n = flat.size
        out: dict[str, float] = {}
        for t in ("MV", "T", "PV", "O", "RV"):
            out[t] = float((flat == t).sum()) / n
        return out


def records(table: pd.DataFrame) -> list[dict]:
    """``table.to_dict("records")``: one dict per row, keys in column order.

    Built from each column's ``tolist()``, which converts a column at once,
    where ``to_dict`` boxes every cell on its own.
    """
    cols = list(table.columns)
    columns = (table.iloc[:, i].tolist() for i in range(len(cols)))
    return [dict(zip(cols, row)) for row in zip(*columns)]


def stringify(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize every cell to a string; NaN/None become the empty string."""
    out = pdf.copy()
    for c in out.columns:
        col = out[c]
        if not pd.api.types.is_string_dtype(col):
            col = col.astype(object).map(
                lambda v: "" if v is None or (isinstance(v, float) and pd.isna(v)) else str(v)
            )
        out[c] = col.fillna("").astype(str)
    return out
