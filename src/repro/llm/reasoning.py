"""Deterministic rule-induction engine behind the simulated LLM.

Each public function mirrors one LLM reasoning task from the paper:

* :func:`derive_criteria` — §III-B criteria reasoning from sampled tuples,
* :func:`tuple_local_judgment` — the context-free judgment an LLM can make
  from a single tuple (used by FM_ED and the w/o-Guidelines ablation),
* :func:`generate_analysis_functions` / :class:`AnalysisFunction` —
  §III-C step 1 (functions that parse the full dataset),
* :func:`build_guideline` / :class:`Guideline` — §III-C step 2,
* :func:`guideline_judgment` — in-context labeling against a guideline,
* :func:`refine_criteria` — Algorithm 1's contrastive in-context prompting,
* :func:`augment_errors` — Algorithm 1's LLM error augmentation.

Inputs are only what a real LLM would see: serialized samples, distribution
reports, and labeled value groups. Ground truth never enters here.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.features.criteria import Criterion, is_missing, try_float
from repro.features.patterns import l2_pattern, l3_shape
from repro.features.stats import robust_sd
from repro.llm.knowledge import near_miss_typo, world_format_violation
from repro.llm.model import SimulatedLLM

_GARBAGE_RUN = re.compile(r"[qxjvkwz]{3,}")
_DIGIT_IN_WORD = re.compile(r"[a-zA-Z]\d+[a-zA-Z]")


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

    Structured means a dominant L2 pattern (>= 30 % of values); free-text
    attributes would make every run-length pattern near-unique, so only
    the class-sequence shape is constrained there.
    """
    from collections import Counter

    l2s = [l2_pattern(v) for v in vals]
    top_share = max(Counter(l2s).values()) / len(l2s)
    if top_share >= 0.3:
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
        counts.setdefault(ov, {})[v] = counts.setdefault(ov, {}).get(v, 0) + 1
    mapping: dict[str, set[str]] = {}
    for ov, dist in counts.items():
        keep = {v for v, c in dist.items() if c >= min_support}
        if keep:
            mapping[ov] = keep
    groups = [g for g in mapping.values() if g]
    if len(mapping) >= 2 and groups and np.mean([len(g) for g in groups]) <= max_branching:
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
    if tier.breadth >= 2:
        crits.append(_pattern_criterion(attr, vals, ""))
    if tier.breadth >= 3:
        floats = [x for v in vals if (x := try_float(v)) is not None]
        if len(floats) >= 0.7 * len(vals):
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


def tuple_local_judgment(attr: str, value: str) -> bool:
    """Error judgment from a single cell, no dataset context (FM_ED power).

    Catches missing placeholders, near-miss typos of known words, digits
    embedded inside words, garbage consonant runs, and stray whitespace —
    but cannot see pattern/rule violations or outliers, which need the
    data context FM_ED lacks (paper Table I).
    """
    if is_missing(value):
        return True
    if value != value.strip():
        return True
    if _GARBAGE_RUN.search(value.lower()):
        return True
    if world_format_violation(attr, value):
        return True
    for token in re.split(r"[^0-9a-zA-Z]+", value):
        if not token:
            continue
        if _DIGIT_IN_WORD.search(token):
            return True
        if near_miss_typo(token):
            return True
    return False


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
    from repro.llm.prompts import analysis_fn_prompt

    return llm.complete(
        analysis_fn_prompt(attr, sample_rows),
        lambda: list(ANALYSIS_KINDS[: max(3, llm.tier.breadth)]),
        "analysis_functions",
    )


# -------------------------------------------------------------- guidelines


@dataclass
class Guideline:
    """Attribute-specific ED guideline: rendered text + structured checks.

    The structured fields are what :func:`guideline_judgment` executes;
    the text is what labeling prompts embed (and get token-charged for).
    Pattern checks operate on two granularities: rare L3 *shapes* always
    indicate format violations, while rare exact L2 patterns only count on
    structured attributes (those with a dominant L2 pattern) — free-text
    attributes make every run-length pattern near-unique.
    """

    attr: str
    n: int
    value_counts: dict = field(default_factory=dict)
    pattern_counts: dict = field(default_factory=dict)  # exact L2
    shape_counts: dict = field(default_factory=dict)  # L3 shapes
    top_l2_share: float = 0.0
    numeric: dict | None = None  # {"lo","hi","frac"}
    domain_like: bool = False
    domain: set = field(default_factory=set)
    rare_value_cut: int = 1
    rare_pattern_cut: int = 1
    rare_shape_share: float = 0.04
    dep_mappings: dict = field(default_factory=dict)
    # other_attr -> {lhs_value: (majority_value, purity, group_size)}

    def render(self) -> str:
        top_vals = sorted(self.value_counts.items(), key=lambda kv: -kv[1])[:8]
        top_pats = sorted(self.pattern_counts.items(), key=lambda kv: -kv[1])[:5]
        lines = [
            f"Guideline for attribute '{self.attr}' ({self.n} values).",
            f"Common values: {top_vals}. Common formats: {top_pats}.",
            f"Rare-shape share cut: {self.rare_shape_share}; "
            f"rare-format cut: <= {self.rare_pattern_cut} occurrences.",
        ]
        if self.numeric:
            lines.append(
                f"Numeric range: [{self.numeric['lo']:.2f}, {self.numeric['hi']:.2f}]."
            )
        if self.domain_like:
            lines.append(f"Closed domain of {len(self.domain)} known values.")
        for other, m in self.dep_mappings.items():
            lines.append(f"Depends on '{other}' ({len(m)} group majorities known).")
        lines.append(
            "Detect: missing placeholders; typos (near-miss of known words); "
            "rare-format pattern violations; numeric outliers; values "
            "contradicting their group majority under a dependency."
        )
        return "\n".join(lines)


def build_guideline(
    llm: SimulatedLLM,
    attr: str,
    summary: dict,
    sample_rows: list[dict],
) -> Guideline:
    """Step 2: turn a full-data distribution summary into a guideline."""
    from repro.llm.prompts import guideline_prompt

    def _build() -> Guideline:
        n = summary["n"]
        vc: dict[str, int] = summary["value_counts"]
        pc: dict[str, int] = summary["pattern_counts_l2"]
        sc: dict[str, int] = summary.get("shape_counts", {})
        top_l2_share = max(pc.values()) / n if pc and n else 0.0
        numeric = None
        num = summary.get("numeric")
        if num and num["frac"] >= 0.7:
            sd = num.get("robust_sd") or (num["std"] or max(1.0, abs(num["mean"]) * 0.1))
            med = num.get("median", num["mean"])
            numeric = {"lo": med - 5.0 * sd, "hi": med + 5.0 * sd, "frac": num["frac"]}
        domain_like = len(vc) / max(1, n) <= 0.3 and numeric is None
        rare_value_cut = 1 if n < 400 else max(1, int(0.003 * n))
        rare_pattern_cut = max(1, int(0.008 * n))
        domain = {v for v, c in vc.items() if c > rare_value_cut} if domain_like else set()
        return Guideline(
            attr=attr,
            n=n,
            value_counts=vc,
            pattern_counts=pc,
            shape_counts=sc,
            top_l2_share=top_l2_share,
            numeric=numeric,
            domain_like=domain_like,
            domain=domain,
            rare_value_cut=rare_value_cut,
            rare_pattern_cut=rare_pattern_cut,
            dep_mappings=summary.get("dep_mappings", {}),
        )

    report = _summary_report(summary)
    return llm.complete(guideline_prompt(attr, report, sample_rows), _build, "guideline")


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
    """Label one value against its guideline (True = error)."""
    if is_missing(value):
        return True
    for other, mapping in g.dep_mappings.items():
        entry = mapping.get(row.get(other, ""))
        if entry is not None:
            majority, purity, size = entry
            # 0.6 purity keeps dependency checks alive on very dirty data
            # (34% error rate leaves FD groups only ~2/3 pure) while still
            # rejecting genuinely non-functional relations
            if size >= 3 and purity >= 0.6 and value != majority:
                return True
    if g.numeric:
        x = try_float(value)
        if x is None or not (g.numeric["lo"] <= x <= g.numeric["hi"]):
            return True
    if g.shape_counts:
        share = g.shape_counts.get(l3_shape(value), 0) / max(1, g.n)
        if share < g.rare_shape_share:
            return True
    if g.top_l2_share >= 0.3 and g.pattern_counts:
        if g.pattern_counts.get(l2_pattern(value), 0) <= g.rare_pattern_cut:
            return True
    if g.domain_like and value not in g.domain:
        return True
    for token in re.split(r"[^0-9a-zA-Z]+", value):
        if token and near_miss_typo(token):
            return True
    if value != value.strip() or _GARBAGE_RUN.search(value.lower()):
        return True
    return False


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

    Rebuilds each criterion perspective from the (much larger) propagated
    clean group instead of the initial random sample, and keeps dependency
    mappings learned from clean rows only.
    """
    from repro.llm.prompts import contrastive_prompt

    def _build() -> list[Criterion]:
        vals = _nonmissing(clean_values)
        tier = llm.tier
        crits: list[Criterion] = [
            Criterion(attr, "not_missing", f"{attr} must not be missing (refined)")
        ]
        if not vals:
            return crits
        crits.append(_pattern_criterion(attr, vals, " (refined)"))
        floats = [x for v in vals if (x := try_float(v)) is not None]
        if len(floats) >= 0.7 * len(vals):
            lo, hi = _robust_range(floats, max(tier.sigma, 3.0))
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
        return crits

    return llm.complete(
        contrastive_prompt(attr, error_values, clean_values), _build, "contrastive"
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
    from repro.llm.prompts import augmentation_prompt

    if len(clean) == 0 or n_needed <= 0:
        return []
    values = clean[attr].tolist()
    n = len(values)
    srcs = [int(llm.uniform("aug_src", attr, i) * n) % n for i in range(n_needed)]
    copied = sorted(set(srcs))
    src_rows = dict(zip(copied, clean.iloc[copied].to_dict("records")))

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
        lambda: [r[attr] for r in rows],
        "augmentation",
    )
    return rows
