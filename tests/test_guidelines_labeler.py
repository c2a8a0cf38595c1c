"""Tests for two-step guideline generation and batch labeling."""
import pytest

from repro.features.correlation import top_related
from repro.labeling.guidelines import execute_analysis, make_guidelines
from repro.labeling.labeler import label_representatives
from repro.llm.model import SimulatedLLM
from repro.llm.reasoning import ANALYSIS_KINDS


@pytest.fixture(scope="module")
def related(hospital_stats):
    return top_related(hospital_stats, 2)


@pytest.fixture(scope="module")
def guidelines(hospital_stats, related, hospital_tiny):
    llm = SimulatedLLM(seed=0)
    samples = hospital_tiny.dirty.head(20).to_dict("records")
    g = make_guidelines(llm, hospital_stats, related, samples)
    return g, llm.usage


def test_execute_analysis_full(hospital_stats, related):
    s = execute_analysis(hospital_stats, "state", related["state"], list(ANALYSIS_KINDS))
    assert s["n"] == hospital_stats.n
    assert s["value_counts"] and s["pattern_counts_l2"] and s["shape_counts"]
    assert "dep_mappings" in s and len(s["dep_mappings"]) == 2
    assert "null_count" in s


def test_execute_analysis_subset(hospital_stats, related):
    s = execute_analysis(hospital_stats, "state", related["state"], list(ANALYSIS_KINDS[:1]))
    assert s["value_counts"] and not s["pattern_counts_l2"]
    assert "dep_mappings" not in s


def test_make_guidelines_covers_attrs(guidelines, hospital_stats):
    g, usage = guidelines
    assert set(g) == set(hospital_stats.attrs)
    # two LLM calls per attribute (analysis functions + guideline)
    assert usage.calls == 2 * len(hospital_stats.attrs)
    assert usage.total_tokens > 0


def test_guideline_numeric_only_for_numeric_attr(guidelines):
    g, _ = guidelines
    assert "range" in [c.kind for c in g["sample"].checks]
    assert "range" not in [c.kind for c in g["city"].checks]


def test_label_representatives_batches_and_tokens(guidelines, hospital_tiny, related):
    g, _ = guidelines
    llm = SimulatedLLM(seed=0)
    reps = list(range(0, 50))
    labels = label_representatives(
        llm, hospital_tiny.dirty, "state", reps, g["state"], related["state"]
    )
    assert set(labels) == set(reps)
    assert set(labels.values()) <= {0, 1}
    assert llm.usage.calls == 3  # ceil(50/20) batches
    assert llm.usage.by_purpose["labeling"]["prompt"] > 0


def test_label_representatives_without_guideline(hospital_tiny, related):
    llm = SimulatedLLM(seed=0)
    labels = label_representatives(
        llm, hospital_tiny.dirty, "state", [0, 1, 2], None, related["state"]
    )
    assert len(labels) == 3


def test_labeling_deterministic(guidelines, hospital_tiny, related):
    g, _ = guidelines
    l1 = label_representatives(
        SimulatedLLM(seed=4), hospital_tiny.dirty, "city", [0, 5, 9], g["city"], related["city"]
    )
    l2 = label_representatives(
        SimulatedLLM(seed=4), hospital_tiny.dirty, "city", [0, 5, 9], g["city"], related["city"]
    )
    assert l1 == l2


def test_labeling_quality_on_known_errors(guidelines, hospital_tiny, related):
    """Guideline labels on all cells of 'state' should beat coin flips."""
    g, _ = guidelines
    llm = SimulatedLLM(seed=0)
    n = len(hospital_tiny.dirty)
    labels = label_representatives(
        llm, hospital_tiny.dirty, "state", list(range(n)), g["state"], related["state"]
    )
    truth = hospital_tiny.error_mask["state"].to_numpy()
    acc = sum((labels[i] == 1) == truth[i] for i in range(n)) / n
    assert acc > 0.85
