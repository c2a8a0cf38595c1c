"""Deterministic rule-induction engine behind the simulated LLM.

Each public function mirrors one LLM reasoning task from the paper:

* :func:`derive_criteria` — §III-B criteria reasoning from sampled tuples,
* :func:`tuple_local_judgment` — the context-free judgment an LLM can make
  from a single tuple (used by FM_ED and the w/o-Guidelines ablation),
* :func:`generate_analysis_functions` / :class:`AnalysisFunction` —
  §III-C step 1 (functions that parse the full dataset),
* :func:`build_guideline` / :class:`Guideline` — §III-C step 2: the
  distribution summary compiled into guideline text and
  :class:`~repro.features.criteria.Criterion` checks,
* :func:`guideline_judgment` — in-context labeling against a guideline:
  its checks, plus the surface errors a value shows by itself,
* :func:`refine_criteria` — Algorithm 1's contrastive in-context prompting,
* :func:`augment_errors` — Algorithm 1's LLM error augmentation.

Inputs are only what a real LLM would see: serialized samples, distribution
reports, and labeled value groups. Ground truth never enters here.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.datasets.base import records
from repro.features.criteria import Criterion, is_missing, try_float
from repro.features.patterns import l2_pattern, l3_shape
from repro.features.stats import robust_sd
from repro.llm.knowledge import near_miss_typo, world_format_violation
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import (
    analysis_fn_prompt,
    augmentation_prompt,
    contrastive_prompt,
    guideline_prompt,
)

_GARBAGE_RUN = re.compile(r"[qxjvkwz]{3,}")
_DIGIT_IN_WORD = re.compile(r"[a-zA-Z]\d+[a-zA-Z]")
_TOKEN_SEP = re.compile(r"[^0-9a-zA-Z]+")

# An attribute is numeric when at least this share of its values parse as
# numbers, and structured when its most common L2 pattern has at least
# this share of its values.
NUMERIC_SHARE = 0.7
STRUCTURED_L2_SHARE = 0.3


# --------------------------------------------------------------- criteria


def _nonmissing(values: list[str]) -> list[str]:
    return [v for v in values if not is_missing(v)]


def _robust_range(floats: list[float], sigma: float) -> tuple[float, float]:
    """Median ± sigma·(MAD-based scale); robust to outliers in the sample."""
    x = np.asarray(floats, dtype=float)
    med = float(np.median(x))
    sd = robust_sd(med, float(np.median(np.abs(x - med))))
    return med - sigma * sd, med + sigma * sd


def _pattern_criterion(attr: str, vals: list[str], note: str) -> Criterion:
    """Exact-L2 patterns for structured attributes, L3 shapes for free text.

    Structured means a dominant L2 pattern (see
    :data:`STRUCTURED_L2_SHARE`); free-text attributes would make every
    run-length pattern near-unique, so only the class-sequence shape is
    constrained there.
    """
    l2s = [l2_pattern(v) for v in vals]
    top_share = max(Counter(l2s).values()) / len(l2s)
    if top_share >= STRUCTURED_L2_SHARE:
        return Criterion(attr, "pattern", f"{attr} format must match known patterns{note}",
                         {"level": "l2", "patterns": set(l2s)})
    return Criterion(attr, "pattern", f"{attr} character shape must be known{note}",
                     {"level": "shape3", "patterns": {l3_shape(v) for v in vals}})


def _dependency_criterion(
    attr: str,
    other: str,
    rows: list[dict],
    max_branching: float,
    note: str,
    min_support: int = 1,
) -> Criterion | None:
    """Dependency check if the relation looks functional in ``rows``.

    ``min_support`` > 1 drops singleton (other, attr) pairs from the
    allowed mapping — essential when ``rows`` are *propagated-clean* rows
    that may contain mislabeled errors, whose one-off wrong pairs would
    otherwise self-justify the criterion they should be failing.
    """
    counts: dict[str, dict[str, int]] = {}
    for r in rows:
        ov, v = r.get(other, ""), r.get(attr, "")
        if is_missing(ov) or is_missing(v):
            continue
        dist = counts.setdefault(ov, {})
        dist[v] = dist.get(v, 0) + 1
    mapping: dict[str, set[str]] = {}
    for ov, dist in counts.items():
        keep = {v for v, c in dist.items() if c >= min_support}
        if keep:
            mapping[ov] = keep
    if len(mapping) >= 2 and np.mean([len(g) for g in mapping.values()]) <= max_branching:
        return Criterion(attr, "dependency", f"{attr} must be consistent with {other}{note}",
                         {"other": other, "mapping": mapping})
    return None


def derive_criteria(
    llm: SimulatedLLM,
    attr: str,
    sample_rows: list[dict],
    related_attrs: list[str],
) -> list[Criterion]:
    """Derive error-checking criteria for ``attr`` from sampled tuples.

    The tier's ``breadth`` bounds how many perspectives the model covers;
    ``sigma`` controls how tight numeric ranges are. Criteria derived from
    a random sample are intentionally imperfect (unseen valid values fail
    domain checks) — Algorithm 1 refines and verifies them later.
    """
    vals = _nonmissing([r.get(attr, "") for r in sample_rows])
    tier = llm.tier
    crits: list[Criterion] = [
        Criterion(attr, "not_missing", f"{attr} must not be a missing placeholder")
    ]
    if not vals:
        return crits
    crits.append(_pattern_criterion(attr, vals, ""))
    floats = [x for v in vals if (x := try_float(v)) is not None]
    if len(floats) >= NUMERIC_SHARE * len(vals):
        lo, hi = _robust_range(floats, tier.sigma)
        crits.append(
            Criterion(attr, "range", f"{attr} must be within a plausible range",
                      {"lo": lo, "hi": hi})
        )
    elif len(set(vals)) <= 0.6 * len(vals):
        crits.append(
            Criterion(attr, "domain", f"{attr} must be a known domain value",
                      {"values": set(vals)})
        )
    if tier.breadth >= 4:
        lens = [len(v) for v in vals]
        crits.append(
            Criterion(attr, "length", f"{attr} length must be in observed bounds",
                      {"lo": max(1, min(lens) - 2), "hi": max(lens) + 2})
        )
    for slot, other in enumerate(related_attrs[:2]):
        if tier.breadth < 5 + slot:
            break
        dep = _dependency_criterion(attr, other, sample_rows, 1.3, "")
        if dep is not None:
            crits.append(dep)
    return crits


# --------------------------------------------------- tuple-local judgment


def _surface_error(value: str) -> bool:
    """An error visible in the value's own characters: stray whitespace, a
    garbage consonant run, or a near-miss typo of a known word."""
    return (
        value != value.strip()
        or _GARBAGE_RUN.search(value.lower()) is not None
        or any(near_miss_typo(t) for t in _TOKEN_SEP.split(value))
    )


def tuple_local_judgment(attr: str, value: str) -> bool:
    """Error judgment from a single cell, no dataset context (FM_ED power).

    Catches missing placeholders, surface errors, well-known formats the
    attribute name implies, and digits embedded inside words — but cannot
    see pattern/rule violations or outliers, which need the data context
    FM_ED lacks (paper Table I).
    """
    return (
        is_missing(value)
        or _surface_error(value)
        or world_format_violation(attr, value)
        or any(_DIGIT_IN_WORD.search(t) for t in _TOKEN_SEP.split(value))
    )


# ------------------------------------------------------ analysis functions


@dataclass(frozen=True)
class AnalysisFunction:
    """A data-distribution analysis function the LLM 'writes' (§III-C)."""

    name: str
    description: str

    def render(self) -> str:
        return f"def {self.name}(df, attr):\n    # {self.description}\n    ...\n"


ANALYSIS_KINDS = [
    AnalysisFunction("value_distribution", "top and rare value frequencies"),
    AnalysisFunction("pattern_distribution", "L2 format pattern frequencies"),
    AnalysisFunction("numeric_summary", "mean/std/min/max over parseable values"),
    AnalysisFunction("null_rate", "count of missing placeholders"),
    AnalysisFunction("dependency_profile", "majority mapping from related attributes"),
]


def generate_analysis_functions(
    llm: SimulatedLLM, attr: str, sample_rows: list[dict]
) -> list[AnalysisFunction]:
    """Step 1 of guideline generation: pick analysis functions to run."""
    return llm.complete(
        analysis_fn_prompt(attr, sample_rows),
        ANALYSIS_KINDS[: llm.tier.breadth],
        "analysis_functions",
    )


# -------------------------------------------------------------- guidelines


@dataclass
class Guideline:
    """Attribute-specific ED guideline: the text labeling prompts embed (and
    get token-charged for), and the checks :func:`guideline_judgment` runs.

    The checks are ordinary :class:`~repro.features.criteria.Criterion`
    objects, so guideline labeling, the criteria features and Algorithm 1's
    verification share one executable check.
    """

    attr: str
    text: str
    checks: list[Criterion]

    def render(self) -> str:
        return self.text


# A shape is rare when fewer than this share of the attribute's values have it.
RARE_SHAPE_SHARE = 0.04


def build_guideline(
    llm: SimulatedLLM,
    attr: str,
    summary: dict,
    sample_rows: list[dict],
) -> Guideline:
    """Step 2: compile a full-data distribution summary into a guideline.

    The checks: a numeric range (median ± 5 robust sd) or a closed domain;
    the L3 shapes that are not rare; the L2 formats that are not rare, on
    structured attributes only (a dominant L2 pattern: free text makes
    every run-length pattern near-unique); and per related attribute, a
    dependency check holding a value to its group's majority.
    """
    n = summary["n"]
    vc: dict[str, int] = summary["value_counts"]
    pc: dict[str, int] = summary["pattern_counts_l2"]
    sc: dict[str, int] = summary.get("shape_counts", {})
    rare_pattern_cut = max(1, int(0.008 * n))
    checks: list[Criterion] = []
    notes: list[str] = []
    num = summary.get("numeric")
    numeric = bool(num) and num["frac"] >= NUMERIC_SHARE
    if numeric:
        sd = num["robust_sd"]
        lo, hi = num["median"] - 5.0 * sd, num["median"] + 5.0 * sd
        checks.append(Criterion(attr, "range", f"{attr} must be within the numeric range",
                                {"lo": lo, "hi": hi}))
        notes.append(f"Numeric range: [{lo:.2f}, {hi:.2f}].")
    if sc:
        common = {s for s, c in sc.items() if c / max(1, n) >= RARE_SHAPE_SHARE}
        checks.append(Criterion(attr, "pattern", f"{attr} character shape must not be rare",
                                {"level": "shape3", "patterns": common}))
    if pc and n and max(pc.values()) / n >= STRUCTURED_L2_SHARE:
        common = {p for p, c in pc.items() if c > rare_pattern_cut}
        checks.append(Criterion(attr, "pattern", f"{attr} format must not be rare",
                                {"level": "l2", "patterns": common}))
    if len(vc) / max(1, n) <= 0.3 and not numeric:
        rare_value_cut = 1 if n < 400 else max(1, int(0.003 * n))
        domain = {v for v, c in vc.items() if c > rare_value_cut}
        checks.append(Criterion(attr, "domain", f"{attr} must be a known domain value",
                                {"values": domain}))
        notes.append(f"Closed domain of {len(domain)} known values.")
    for other, groups in summary.get("dep_mappings", {}).items():
        # 0.6 purity keeps dependency checks alive on very dirty data
        # (34% error rate leaves FD groups only ~2/3 pure) while still
        # rejecting genuinely non-functional relations
        mapping = {
            lhs: {majority}
            for lhs, (majority, purity, size) in groups.items()
            if size >= 3 and purity >= 0.6
        }
        checks.append(Criterion(attr, "dependency", f"{attr} must match its {other} group",
                                {"other": other, "mapping": mapping}))
        notes.append(f"Depends on '{other}' ({len(groups)} group majorities known).")
    top_vals = sorted(vc.items(), key=lambda kv: -kv[1])[:8]
    top_pats = sorted(pc.items(), key=lambda kv: -kv[1])[:5]
    text = "\n".join([
        f"Guideline for attribute '{attr}' ({n} values).",
        f"Common values: {top_vals}. Common formats: {top_pats}.",
        f"Rare-shape share cut: {RARE_SHAPE_SHARE}; "
        f"rare-format cut: <= {rare_pattern_cut} occurrences.",
        *notes,
        "Detect: missing placeholders; typos (near-miss of known words); "
        "rare-format pattern violations; numeric outliers; values "
        "contradicting their group majority under a dependency.",
    ])
    return llm.complete(
        guideline_prompt(attr, _summary_report(summary), sample_rows),
        Guideline(attr, text, checks),
        "guideline",
    )


def _summary_report(summary: dict) -> str:
    """Render the executed analysis-function results as prompt text."""
    vc = sorted(summary["value_counts"].items(), key=lambda kv: -kv[1])
    pc = sorted(summary["pattern_counts_l2"].items(), key=lambda kv: -kv[1])
    parts = [
        f"n={summary['n']} nulls={summary.get('null_count', 0)}",
        f"top values: {vc[:10]}",
        f"rare values: {vc[-10:]}",
        f"patterns: {pc[:8]}",
    ]
    if summary.get("numeric"):
        parts.append(f"numeric: {summary['numeric']}")
    for other, m in summary.get("dep_mappings", {}).items():
        parts.append(f"dependency on {other}: {len(m)} groups")
    return "\n".join(parts)


def guideline_judgment(g: Guideline, value: str, row: dict) -> bool:
    """Label one value against its guideline (True = error): a missing
    placeholder, a failed check, or a surface error."""
    return (
        is_missing(value)
        or not all(c.evaluate(value, row) for c in g.checks)
        or _surface_error(value)
    )


# ------------------------------------------------------ contrastive refine


def refine_criteria(
    llm: SimulatedLLM,
    attr: str,
    error_values: list[str],
    clean_values: list[str],
    clean_rows: list[dict],
    related_attrs: list[str],
) -> list[Criterion]:
    """Algorithm 1 lines 4–7: contrastive in-context criteria refinement.

    Rebuilds the pattern, range and domain perspectives from
    ``clean_values``, the representatives labeled clean, instead of the
    initial random sample; the domain check is dropped when most of
    ``error_values``, the representatives labeled erroneous, fall inside it.
    Dependency mappings are learned from ``clean_rows`` only, every
    ``step``-th row of the propagated clean group.
    """
    vals = _nonmissing(clean_values)
    crits: list[Criterion] = [
        Criterion(attr, "not_missing", f"{attr} must not be missing (refined)")
    ]
    if vals:
        crits.append(_pattern_criterion(attr, vals, " (refined)"))
        floats = [x for v in vals if (x := try_float(v)) is not None]
        if len(floats) >= NUMERIC_SHARE * len(vals):
            lo, hi = _robust_range(floats, max(llm.tier.sigma, 3.0))
            crits.append(
                Criterion(attr, "range", f"{attr} refined range check",
                          {"lo": lo, "hi": hi})
            )
        elif len(set(vals)) <= 0.5 * len(vals):
            dom = set(vals)
            # contrast: drop the domain check if it cannot separate groups
            if not error_values or sum(e in dom for e in error_values) <= 0.5 * len(error_values):
                crits.append(
                    Criterion(attr, "domain", f"{attr} refined domain check",
                              {"values": dom})
                )
        for other in related_attrs[:2]:
            dep = _dependency_criterion(
                attr, other, clean_rows, 1.5, " (refined)", min_support=2
            )
            if dep is not None:
                crits.append(dep)
    return llm.complete(
        contrastive_prompt(attr, error_values, clean_values), crits, "contrastive"
    )


# ------------------------------------------------------------ augmentation


_AUG_OPS = ("typo", "missing", "pattern", "outlier", "swap")


def augment_errors(
    llm: SimulatedLLM,
    attr: str,
    clean: pd.DataFrame,
    n_needed: int,
) -> list[dict]:
    """Algorithm 1 lines 24–25: LLM-generated erroneous variants.

    Each synthetic example copies a row of the ``clean`` table and corrupts
    ``attr`` with a semantically plausible operation. Weak tiers (low
    ``aug_quality``) emit trivial corruptions (a stray suffix) that train
    the detector less effectively — mirroring the paper's model-quality gap.
    Only the copied rows are turned into dicts; the prompt and a swap read
    the ``attr`` column alone.
    """
    if len(clean) == 0 or n_needed <= 0:
        return []
    values = clean[attr].tolist()
    n = len(values)
    srcs = [int(llm.uniform("aug_src", attr, i) * n) % n for i in range(n_needed)]
    copied = sorted(set(srcs))
    src_rows = dict(zip(copied, records(clean.iloc[copied])))

    def _corrupt(i: int) -> dict:
        row = dict(src_rows[srcs[i]])
        v = row[attr]
        if llm.uniform("aug_q", attr, i) > llm.tier.aug_quality or not v:
            row[attr] = (v or "x") + "x"
            return row
        op = llm.choice(_AUG_OPS, "aug_op", attr, i)
        if op == "missing":
            row[attr] = llm.choice(["", "null", "n/a"], "aug_mv", attr, i)
        elif op == "typo":
            pos = int(llm.uniform("aug_pos", attr, i) * len(v)) % len(v)
            sub = llm.choice(list("abcdefghijklmnopqrstuvwxyz0123456789"), "aug_ch", attr, i)
            row[attr] = v[:pos] + sub + v[pos + 1:]
        elif op == "pattern":
            row[attr] = "".join(c for c in v if c.isalnum()) or v.upper()
            if row[attr] == v:
                row[attr] = v.upper() if v.upper() != v else v.lower()
        elif op == "outlier":
            x = try_float(v)
            row[attr] = f"{x * 100:.1f}" if x is not None else "zzqxw"
        else:  # swap: a valid value from a different row (context mismatch)
            row[attr] = values[int(llm.uniform("aug_sw", attr, i) * n) % n]
        if row[attr] == v:
            row[attr] = v + "x"
        return row

    rows = [_corrupt(i) for i in range(n_needed)]
    # the LLM emits only the corrupted values — charge those as completion
    # text, not the full synthetic rows we assemble around them locally
    llm.complete(
        augmentation_prompt(attr, values, n_needed),
        [r[attr] for r in rows],
        "augmentation",
    )
    return rows
