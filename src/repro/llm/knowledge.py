"""Static "world knowledge" of the simulated LLM.

A real LLM knows, from pretraining, that "huntsville" is a city and
"hunttsville" is not a word; that lets it spot typos in near-unique text
attributes where no statistical signal exists. We model that with a fixed
lexicon of real-world-ish tokens (place names, person names, months,
common domain words). The lexicon is *independent of any particular
generated dataset instance* — it plays the role of pretrained knowledge,
not of ground-truth access: a token is judged a typo only if it is absent
from the lexicon yet within edit distance 2 of a lexicon word.
"""
from __future__ import annotations

import re
from functools import lru_cache

from repro.datasets import schemas as _s

_MONTHS = [
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
]
_COMMON = [
    "hospital", "medical", "center", "county", "surgical", "infection",
    "prevention", "heart", "attack", "failure", "pneumonia", "measure",
    "brewing", "brewery", "beer", "works", "american", "pale", "ale",
    "india", "porter", "stout", "journal", "review", "studies", "analysis",
    "detection", "methods", "outcomes", "systems", "corp", "group",
    "holdings", "founder", "chairman", "investor", "heir", "north",
    "south", "east", "west", "america", "europe", "asia", "oceania",
    "technology", "retail", "energy", "finance", "media", "real", "estate",
    "healthcare", "drama", "comedy", "action", "thriller", "romance",
    "horror", "documentary", "english", "french", "spanish", "german",
    "hindi", "united", "states", "kingdom", "china", "russia", "brazil",
    "italy", "japan", "canada", "australia", "mexico", "spain", "sweden",
    "switzerland", "male", "female", "affair", "road", "garden", "secret",
    "return", "lager", "ipa", "kolsch", "saison", "witbier", "hefeweizen",
    "pilsner", "amber", "brown", "cream", "fruit", "golden", "oatmeal",
]

WORLD_LEXICON: frozenset[str] = frozenset(
    w
    for src in (_s._CITIES, _s._STATES, _s._FIRST, _s._LAST, _s._WORDS, _MONTHS, _COMMON)
    for phrase in src
    for w in phrase.split()
)


# Formats an LLM knows from pretraining, keyed by attribute-name hints.
# FM_ED sees attribute names in its per-tuple prompt, so "phone: 2053580167"
# is flaggable without any dataset context — this is world knowledge, not
# data-derived. Each entry: (name substring, regex the clean value matches).
KNOWN_FORMATS: list[tuple[str, re.Pattern]] = [
    ("phone", re.compile(r"\d{3}-\d{3}-\d{4}|\(\d{3}\) \d{3}-\d{4}|\d{3}-\d{4}")),
    ("zip", re.compile(r"\d{5}(-\d{4})?")),
    ("issn", re.compile(r"\d{4}-\d{4}")),
    ("time", re.compile(r"\d{1,2}:\d{2}(:\d{2})?( [ap]\.?m\.?)?")),
    ("year", re.compile(r"(18|19|20)\d{2}")),
    ("date", re.compile(r"\d{1,2} [A-Za-z]+ (18|19|20)\d{2}|\d{4}-\d{2}-\d{2}")),
]

# Plausible numeric ranges an LLM knows for common attribute names.
KNOWN_RANGES: dict[str, tuple[float, float]] = {
    "age": (0, 120),
    "year": (1850, 2035),
    "rating": (0, 10),
}

KNOWN_DOMAINS: dict[str, frozenset[str]] = {
    "gender": frozenset({"m", "f", "male", "female"}),
}


def world_format_violation(attr: str, value: str) -> bool:
    """True if the attribute name implies a well-known format/range/domain
    the value violates — judgable from a single tuple, like a real LLM.

    Hints match whole *tokens* of the attribute name ("language" must not
    trigger the "age" range; "rating_count" is a count, not a 0–10 rating).
    """
    tokens = set(re.split(r"[^a-z]+", attr.lower())) - {""}
    for hint, rx in KNOWN_FORMATS:
        if hint in tokens:
            return rx.fullmatch(value) is None
    if "count" not in tokens:
        for hint, (lo, hi) in KNOWN_RANGES.items():
            if hint in tokens:
                try:
                    return not (lo <= float(value) <= hi)
                except ValueError:
                    return True
    for hint, domain in KNOWN_DOMAINS.items():
        if hint in tokens:
            return value.lower() not in domain
    return False


def edit_distance_le(a: str, b: str, k: int = 2) -> bool:
    """True iff levenshtein(a, b) <= k (banded DP with early exit)."""
    if abs(len(a) - len(b)) > k:
        return False
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        lo = len(b) + 1
        for j, cb in enumerate(b, 1):
            d = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            cur.append(d)
            lo = min(lo, d)
        if lo > k:
            return False
        prev = cur
    return prev[-1] <= k


@lru_cache(maxsize=65536)
def near_miss_typo(token: str) -> bool:
    """Token looks like a typo of a known word (absent but edit-dist <= 2).

    Only alphabetic tokens of length >= 4 qualify — short tokens collide
    with too many words for a real LLM (or this simulation) to be sure.
    """
    t = token.lower()
    if len(t) < 4 or not t.isalpha() or t in WORLD_LEXICON:
        return False
    return any(
        edit_distance_le(t, w, 2) for w in WORLD_LEXICON if abs(len(w) - len(t)) <= 2
    )
