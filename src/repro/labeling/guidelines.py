"""Two-step ED guideline generation (paper §III-C, Fig. 5).

Step 1: the LLM designs distribution-analysis functions from sample
tuples. Step 2: the functions are *executed over the whole dataset* —
here, their results are read off the single-pass Spark statistics that
:mod:`repro.features.stats` already aggregated (value/pattern counts,
numeric summaries, null rates, dependency majorities), which is exactly
what the paper's generated functions compute — and the LLM turns the
resulting distribution report plus sampled tuples into an attribute-
specific :class:`~repro.llm.reasoning.Guideline`: the text the labeling
prompts carry, and the :class:`~repro.features.criteria.Criterion` checks
the labeling runs (the same executable check as the criteria features).
"""
from __future__ import annotations

from repro.features.stats import DatasetStats
from repro.llm.model import SimulatedLLM
from repro.llm.reasoning import (
    AnalysisFunction,
    Guideline,
    build_guideline,
    generate_analysis_functions,
)


def execute_analysis(
    stats: DatasetStats,
    attr: str,
    related: list[str],
    functions: list[AnalysisFunction],
) -> dict:
    """Run the chosen analysis functions against the collected statistics."""
    wanted = {f.name for f in functions}
    summary: dict = {"n": stats.n, "value_counts": {}, "pattern_counts_l2": {}}
    if "value_distribution" in wanted:
        summary["value_counts"] = stats.value_counts[attr]
    if "pattern_distribution" in wanted:
        summary["pattern_counts_l2"] = stats.pattern_counts(attr, "l2")
        summary["shape_counts"] = stats.pattern_counts(attr, "shape3")
    if "numeric_summary" in wanted:
        summary["numeric"] = stats.numeric_summary(attr)
    if "null_rate" in wanted:
        summary["null_count"] = stats.null_count(attr)
    if "dependency_profile" in wanted and related:
        summary["dep_mappings"] = {
            other: stats.dependency_mapping(attr, other) for other in related
        }
    return summary


def make_guidelines(
    llm: SimulatedLLM,
    stats: DatasetStats,
    related: dict[str, list[str]],
    sample_rows: list[dict],
) -> dict[str, Guideline]:
    """Generate one guideline per attribute via the two-step process."""
    out: dict[str, Guideline] = {}
    for attr in stats.attrs:
        fns = generate_analysis_functions(llm, attr, sample_rows)
        summary = execute_analysis(stats, attr, related.get(attr, []), fns)
        out[attr] = build_guideline(llm, attr, summary, sample_rows)
    return out
