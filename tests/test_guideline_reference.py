"""Compiled guideline checks against a field-based reference judgment.

A guideline's checks are :class:`~repro.features.criteria.Criterion`
objects compiled from the distribution summary. The reference below reads
the summary field by field instead: value, pattern and shape counts, a
numeric range, a closed domain and dependency majorities, each checked by
its own lookup code. On every cell of two tiny tables, under guidelines
from every model tier, both must give the same label and the same text.
"""
import re

import pytest

from repro.features.correlation import top_related
from repro.features.criteria import is_missing, try_float
from repro.features.patterns import l2_pattern, l3_shape
from repro.labeling.guidelines import execute_analysis
from repro.llm.knowledge import near_miss_typo
from repro.llm.model import TIERS, SimulatedLLM
from repro.llm.reasoning import build_guideline, generate_analysis_functions, guideline_judgment


def _reference(attr: str, summary: dict):
    """``(text, judge)`` of the field-based guideline for ``summary``."""
    n = summary["n"]
    vc, pc = summary["value_counts"], summary["pattern_counts_l2"]
    sc = summary.get("shape_counts", {})
    deps = summary.get("dep_mappings", {})
    top_l2_share = max(pc.values()) / n if pc and n else 0.0
    numeric = None
    num = summary.get("numeric")
    if num and num["frac"] >= 0.7:
        sd = num.get("robust_sd") or (num["std"] or max(1.0, abs(num["mean"]) * 0.1))
        med = num.get("median", num["mean"])
        numeric = {"lo": med - 5.0 * sd, "hi": med + 5.0 * sd}
    domain_like = len(vc) / max(1, n) <= 0.3 and numeric is None
    rare_value_cut = 1 if n < 400 else max(1, int(0.003 * n))
    rare_pattern_cut = max(1, int(0.008 * n))
    rare_shape_share = 0.04
    domain = {v for v, c in vc.items() if c > rare_value_cut} if domain_like else set()

    top_vals = sorted(vc.items(), key=lambda kv: -kv[1])[:8]
    top_pats = sorted(pc.items(), key=lambda kv: -kv[1])[:5]
    lines = [
        f"Guideline for attribute '{attr}' ({n} values).",
        f"Common values: {top_vals}. Common formats: {top_pats}.",
        f"Rare-shape share cut: {rare_shape_share}; "
        f"rare-format cut: <= {rare_pattern_cut} occurrences.",
    ]
    if numeric:
        lines.append(f"Numeric range: [{numeric['lo']:.2f}, {numeric['hi']:.2f}].")
    if domain_like:
        lines.append(f"Closed domain of {len(domain)} known values.")
    for other, m in deps.items():
        lines.append(f"Depends on '{other}' ({len(m)} group majorities known).")
    lines.append(
        "Detect: missing placeholders; typos (near-miss of known words); "
        "rare-format pattern violations; numeric outliers; values "
        "contradicting their group majority under a dependency."
    )

    def judge(value: str, row: dict) -> bool:
        if is_missing(value):
            return True
        for other, mapping in deps.items():
            entry = mapping.get(row.get(other, ""))
            if entry is not None:
                majority, purity, size = entry
                if size >= 3 and purity >= 0.6 and value != majority:
                    return True
        if numeric:
            x = try_float(value)
            if x is None or not (numeric["lo"] <= x <= numeric["hi"]):
                return True
        if sc and sc.get(l3_shape(value), 0) / max(1, n) < rare_shape_share:
            return True
        if top_l2_share >= 0.3 and pc and pc.get(l2_pattern(value), 0) <= rare_pattern_cut:
            return True
        if domain_like and value not in domain:
            return True
        for token in re.split(r"[^0-9a-zA-Z]+", value):
            if token and near_miss_typo(token):
                return True
        return value != value.strip() or re.search(r"[qxjvkwz]{3,}", value.lower()) is not None

    return "\n".join(lines), judge


@pytest.fixture(scope="module")
def tables(hospital_tiny, hospital_stats, flights_tiny, flights_stats):
    return [(hospital_tiny, hospital_stats), (flights_tiny, flights_stats)]


@pytest.mark.parametrize("model", sorted(TIERS))
def test_compiled_checks_match_field_based_reference(tables, model):
    mismatches = []
    for ds, stats in tables:
        related = top_related(stats, 2)
        llm = SimulatedLLM(model, seed=0)
        samples = ds.dirty.head(20).to_dict("records")
        rows = ds.dirty.to_dict("records")
        # each cell is judged in its own row and in the next row's context:
        # out of sample, a dependency group smaller than 3 is not a majority
        contexts = rows[1:] + rows[:1]
        for attr in ds.attrs:
            summary = execute_analysis(
                stats, attr, related[attr], generate_analysis_functions(llm, attr, samples)
            )
            g = build_guideline(llm, attr, summary, samples)
            text, judge = _reference(attr, summary)
            assert g.text == text, (ds.name, attr)
            for row, ctx in zip(rows, contexts):
                v = row[attr]
                for r in (row, ctx):
                    if guideline_judgment(g, v, r) != judge(v, r):
                        mismatches.append((ds.name, attr, v, r))
    assert not mismatches, mismatches[:5]
