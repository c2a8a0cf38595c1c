"""Executable error-checking criteria (paper §III-B, Fig. 4).

The (simulated) LLM derives per-attribute criteria as *data*, not code
strings: each :class:`Criterion` is a small spec (kind + params) with a
generic ``evaluate`` implementation, preserving the paper's semantics —
executing each criterion over a cell value (plus its row context for
dependency checks) yields one binary feature per criterion: ``True`` =
the value passes the check. ZeroED runs the same criteria twice: as
cell features, and as the judge of Algorithm 1's mutual verification.

This module alone knows which columns a criterion reads
(:attr:`Criterion.reads`): the attribute's own value, plus, for a
dependency check, one other attribute, ``params["other"]``.
:func:`evaluate_table` serves both uses, evaluating each criterion once
per distinct key of the columns it reads rather than once per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import pandas as pd

from repro.features.patterns import PATTERN_LEVELS

MISSING_TOKENS = {"", "null", "n/a", "-", "unknown", "nan", "none", "nil", "?"}


def is_missing(value: str) -> bool:
    return value is None or value.strip().lower() in MISSING_TOKENS


def try_float(value: str) -> float | None:
    """Parse a finite float, else None ("nan"/"inf" strings don't count)."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


@dataclass
class Criterion:
    """One executable error-checking criterion for a single attribute."""

    attr: str
    kind: str  # not_missing | pattern | domain | range | length | dependency
    name: str
    params: dict = field(default_factory=dict)

    @property
    def reads(self) -> tuple[str, ...]:
        """The columns this criterion reads: ``attr`` first."""
        if self.kind == "dependency":
            return (self.attr, self.params["other"])
        return (self.attr,)

    def evaluate(self, value: str, row: dict[str, str] | None = None) -> bool:
        """True iff ``value`` (in ``row`` context) passes this check."""
        k = self.kind
        if k == "not_missing":
            return not is_missing(value)
        if is_missing(value):
            # Non-missing-specific checks abstain on missing values; the
            # dedicated not_missing criterion owns that signal.
            return True
        if k == "pattern":
            fn = PATTERN_LEVELS[self.params["level"]]
            return fn(value) in self.params["patterns"]
        if k == "domain":
            return value in self.params["values"]
        if k == "range":
            x = try_float(value)
            if x is None:
                return False
            return self.params["lo"] <= x <= self.params["hi"]
        if k == "length":
            return self.params["lo"] <= len(value) <= self.params["hi"]
        if k == "dependency":
            other_val = (row or {}).get(self.params["other"], "")
            allowed = self.params["mapping"].get(other_val)
            return True if allowed is None else value in allowed
        raise ValueError(f"unknown criterion kind {k!r}")

    def applicable(self, value: str, row: dict[str, str] | None = None) -> bool:
        """False when this criterion abstains on the cell.

        A dependency check abstains when the determining value is outside
        its learned mapping; counting abstentions as passes would inflate
        verification pass rates, so Algorithm 1's mutual verification
        computes rates over *applicable* criteria only.
        """
        if self.kind == "dependency":
            return (row or {}).get(self.params["other"], "") in self.params["mapping"]
        return True

    def render(self) -> str:
        """Human/token-accountable rendering, as if LLM-emitted Python."""
        return (
            f"def check_{self.kind}_{self.attr}(row):\n"
            f"    # {self.name}\n"
            f"    return passes({self.kind!r}, row[{self.attr!r}], "
            f"params={sorted(self.params)})\n"
        )


def factorize(keys: Iterable, n: int) -> tuple[np.ndarray, list]:
    """Each of the ``n`` keys' code, and the distinct keys in code order."""
    index: dict = {}
    codes = np.fromiter((index.setdefault(k, len(index)) for k in keys), dtype=np.intp, count=n)
    return codes, list(index)


def evaluate_table(
    criteria: list[Criterion], table: pd.DataFrame
) -> tuple[np.ndarray, np.ndarray]:
    """``(passes, applicable)``: two ``(len(table), len(criteria))`` bool
    arrays, :meth:`Criterion.evaluate` and :meth:`Criterion.applicable` of
    every row's cell. Each criterion runs once per distinct key of its
    :attr:`~Criterion.reads` columns, and criteria reading the same columns
    share one factorization."""
    n = len(table)
    passes = np.empty((n, len(criteria)), dtype=bool)
    applicable = np.empty_like(passes)
    keyed: dict[tuple[str, ...], tuple[np.ndarray, list[dict]]] = {}
    for j, c in enumerate(criteria):
        if c.reads not in keyed:
            codes, keys = factorize(zip(*(table[col].tolist() for col in c.reads)), n)
            keyed[c.reads] = codes, [dict(zip(c.reads, k)) for k in keys]
        codes, rows = keyed[c.reads]
        passes[:, j] = np.array([c.evaluate(r[c.attr], r) for r in rows], dtype=bool)[codes]
        applicable[:, j] = np.array([c.applicable(r[c.attr], r) for r in rows], dtype=bool)[codes]
    return passes, applicable
