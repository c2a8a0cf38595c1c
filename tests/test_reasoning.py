"""Tests for the simulated LLM's rule-induction engine."""
import pandas as pd
import pytest

from repro.llm.model import SimulatedLLM
from repro.llm.reasoning import (
    Guideline,
    _pattern_criterion,
    _robust_range,
    augment_errors,
    build_guideline,
    derive_criteria,
    generate_analysis_functions,
    guideline_judgment,
    refine_criteria,
    tuple_local_judgment,
)


@pytest.fixture
def llm():
    return SimulatedLLM("qwen2.5-72b", seed=0)


@pytest.fixture
def weak_llm():
    return SimulatedLLM("gpt-4o-mini", seed=0)


SAMPLE_ROWS = [
    {"city": c, "state": s, "score": f"{v}%"}
    for c, s, v in [
        ("austin", "tx", 85), ("austin", "tx", 90), ("dallas", "tx", 70),
        ("boston", "ma", 88), ("boston", "ma", 77), ("miami", "fl", 66),
        ("austin", "tx", 95), ("miami", "fl", 91), ("dallas", "tx", 72),
        ("boston", "ma", 81),
    ]
]
NUM_ROWS = [{"n": str(v)} for v in [10, 12, 11, 13, 9, 14, 10, 12, 11, 5000]]


# ------------------------------------------------------------- robust range


def test_robust_range_resists_outliers():
    lo, hi = _robust_range([10, 12, 11, 13, 9, 14, 10, 12, 5000], sigma=4)
    assert hi < 100  # the 5000 outlier must not inflate the range
    assert lo < 10 < hi


def test_robust_range_degenerate():
    lo, hi = _robust_range([5.0, 5.0, 5.0], sigma=4)
    assert lo < 5 < hi


# -------------------------------------------------------- pattern criterion


def test_pattern_criterion_structured_uses_l2():
    c = _pattern_criterion("score", ["85%", "90%", "72%", "66%"], "")
    assert c.params["level"] == "l2"
    assert c.evaluate("55%", {}) and not c.evaluate("55", {})


def test_pattern_criterion_freetext_uses_shape():
    vals = [f"{w} medical center {i}" for i, w in enumerate(
        ["aa", "bbb", "cccc", "ddddd", "eeeeee", "fffffff", "g", "hh", "iii", "jjjj"]
    )]
    c = _pattern_criterion("name", vals, "")
    assert c.params["level"] == "shape3"


# --------------------------------------------------------- derive_criteria


def test_derive_criteria_strong_tier(llm):
    crits = derive_criteria(llm, "state", SAMPLE_ROWS, ["city"])
    kinds = [c.kind for c in crits]
    assert kinds[0] == "not_missing"
    assert "pattern" in kinds and "domain" in kinds and "length" in kinds
    assert "dependency" in kinds  # city determines state in the sample


def test_derive_criteria_weak_tier(weak_llm):
    crits = derive_criteria(weak_llm, "state", SAMPLE_ROWS, ["city"])
    kinds = {c.kind for c in crits}
    assert "dependency" not in kinds  # breadth 3 stops before dependencies


def test_derive_criteria_numeric_range(llm):
    crits = derive_criteria(llm, "n", NUM_ROWS, [])
    rng = [c for c in crits if c.kind == "range"]
    assert rng and not rng[0].evaluate("5000", {})
    assert rng[0].evaluate("11", {})


def test_derive_criteria_empty_samples(llm):
    crits = derive_criteria(llm, "x", [{"x": ""}], [])
    assert [c.kind for c in crits] == ["not_missing"]


def test_derive_criteria_charges_nothing_direct(llm):
    # derive_criteria itself is pure; token charging happens at the caller
    before = llm.usage.total_tokens
    derive_criteria(llm, "state", SAMPLE_ROWS, [])
    assert llm.usage.total_tokens == before


# --------------------------------------------------- tuple-local judgment


@pytest.mark.parametrize(
    "attr,value,expected",
    [
        ("any", "", True),
        ("any", "null", True),
        ("any", " padded ", True),
        ("city", "hunttsville", True),    # near-miss typo
        ("name", "mobi1e home", True),    # digit inside a word
        ("any", "zzqxjvw", True),         # garbage consonant run
        ("phone", "2053580167", True),    # world-knowledge format
        ("city", "huntsville", False),
        ("id", "tt1000", False),
        ("gate", "B4", False),
    ],
)
def test_tuple_local_judgment(attr, value, expected):
    assert tuple_local_judgment(attr, value) is expected


# ------------------------------------------------------ analysis functions


def test_generate_analysis_functions(llm):
    fns = generate_analysis_functions(llm, "city", SAMPLE_ROWS)
    names = {f.name for f in fns}
    assert "value_distribution" in names and "dependency_profile" in names
    assert llm.usage.calls == 1


def test_weak_tier_fewer_functions(llm, weak_llm):
    strong = generate_analysis_functions(llm, "c", SAMPLE_ROWS)
    weak = generate_analysis_functions(weak_llm, "c", SAMPLE_ROWS)
    assert len(weak) <= len(strong)


# -------------------------------------------------------------- guidelines


def _summary(**kw):
    base = {
        "n": 100,
        "value_counts": {"85%": 40, "90%": 40, "70%": 18, "55%": 2},
        "pattern_counts_l2": {"D[2]S[1]": 98, "D[1]S[1]": 2},
        "shape_counts": {"DS": 100},
        "null_count": 0,
    }
    base.update(kw)
    return base


def test_build_guideline_structured(llm):
    g = build_guideline(llm, "score", _summary(), SAMPLE_ROWS)
    assert g.attr == "score"
    assert g.top_l2_share > 0.9
    assert g.domain_like  # 4 distinct / 100
    assert "score" in g.render()
    assert llm.usage.calls == 1


def test_guideline_judgment_missing(llm):
    g = build_guideline(llm, "score", _summary(), SAMPLE_ROWS)
    assert guideline_judgment(g, "", {})


def test_guideline_judgment_rare_shape(llm):
    g = build_guideline(llm, "score", _summary(shape_counts={"DS": 97, "D": 3}), SAMPLE_ROWS)
    assert guideline_judgment(g, "85", {})
    assert not guideline_judgment(g, "85%", {})


def test_guideline_judgment_numeric_outlier(llm):
    g = build_guideline(
        llm, "n",
        _summary(
            value_counts={str(v): 10 for v in range(10, 20)},
            pattern_counts_l2={"D[2]": 100},
            shape_counts={"D": 100},
            numeric={"frac": 1.0, "mean": 15, "std": 3, "median": 15, "mad": 2,
                     "robust_sd": 3.0, "min": 10, "max": 19},
        ),
        SAMPLE_ROWS,
    )
    assert guideline_judgment(g, "1500", {})
    assert not guideline_judgment(g, "15", {})


def test_guideline_judgment_dependency(llm):
    g = build_guideline(
        llm, "state",
        _summary(dep_mappings={"city": {"austin": ("tx", 0.95, 20)}}),
        SAMPLE_ROWS,
    )
    # unknown lhs: the dependency abstains, and a common value stays clean
    assert not guideline_judgment(g, "85%", {"city": "paris"})
    assert guideline_judgment(g, "ca", {"city": "austin"})


def test_guideline_render_mentions_checks(llm):
    g = build_guideline(llm, "score", _summary(), SAMPLE_ROWS)
    text = g.render()
    assert "Common values" in text and "Detect" in text


# ---------------------------------------------------------------- refine


def test_refine_criteria_min_support_excludes_singletons(llm):
    clean_rows = (
        [{"state": "tx", "city": "austin"}] * 10
        + [{"state": "ma", "city": "boston"}] * 10
        + [{"state": "WRONG", "city": "austin"}]  # poisoned propagated row
    )
    crits = refine_criteria(
        llm, "state", ["zz"], ["tx", "ma"] * 5, clean_rows, ["city"]
    )
    dep = [c for c in crits if c.kind == "dependency"]
    assert dep, "dependency criterion expected"
    # the singleton wrong pair must NOT self-justify
    assert not dep[0].evaluate("WRONG", {"city": "austin"})
    assert dep[0].evaluate("tx", {"city": "austin"})


def test_refine_domain_contrast_drops_useless_domain(llm):
    # errors are inside the candidate domain -> domain check must be dropped
    clean_vals = ["a", "b"] * 20
    err_vals = ["a", "b", "a"]
    crits = refine_criteria(llm, "x", err_vals, clean_vals, [], [])
    assert "domain" not in {c.kind for c in crits}


# ---------------------------------------------------------- augmentation


def test_augment_errors_count_and_difference(llm):
    rows = [{"v": f"value {i}", "w": "ctx"} for i in range(20)]
    out = augment_errors(llm, "v", pd.DataFrame(rows), 30)
    assert len(out) == 30
    originals = {r["v"] for r in rows}
    changed = sum(1 for r in out if r["v"] not in originals)
    assert changed > 15  # most corruptions leave the clean domain
    assert all(set(r) == {"v", "w"} for r in out)  # full row context kept


def test_augment_errors_empty_inputs(llm):
    assert augment_errors(llm, "v", pd.DataFrame(columns=["v"]), 5) == []
    assert augment_errors(llm, "v", pd.DataFrame([{"v": "x"}]), 0) == []


def test_augment_quality_differs_by_tier(llm, weak_llm):
    rows = [{"v": "hello world 123"}] * 10
    strong = augment_errors(llm, "v", pd.DataFrame(rows), 40)
    weak = augment_errors(weak_llm, "v", pd.DataFrame(rows), 40)
    trivial = lambda out: sum(1 for r in out if r["v"].endswith("x"))  # noqa: E731
    assert trivial(weak) > trivial(strong)


def test_augment_deterministic(llm):
    rows = [{"v": f"val{i}"} for i in range(5)]
    a = augment_errors(SimulatedLLM(seed=3), "v", pd.DataFrame(rows), 10)
    b = augment_errors(SimulatedLLM(seed=3), "v", pd.DataFrame(rows), 10)
    assert a == b
