"""Executable error-checking criteria (paper §III-B, Fig. 4).

The (simulated) LLM derives per-attribute criteria as *data*, not code
strings: each :class:`Criterion` is a small spec (kind + params) with a
generic ``evaluate`` implementation. This keeps criteria picklable so they
can ship inside Spark ``mapInPandas`` closures, while preserving the
paper's semantics — executing each criterion over a cell value (plus its
row context for dependency checks) yields one binary feature per
criterion: ``True`` = the value passes the check. A dependency check reads
one other attribute of the row, ``params["other"]``, drawn from the
attribute's related set, so featurization evaluates criteria once per
distinct (value, related values) key rather than once per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
