"""Tests for the simulated LLM core (tiers, noise, accounting)."""
import pytest

from repro.features.criteria import Criterion
from repro.llm.model import TIERS, SimulatedLLM, _render
from repro.llm.reasoning import AnalysisFunction
from repro.llm.tokens import count_tokens


def test_all_paper_models_present():
    assert set(TIERS) == {
        "qwen2.5-72b", "llama3.1-70b", "llama3.1-8b", "qwen2.5-7b", "gpt-4o-mini",
    }


def test_tier_quality_ordering():
    assert TIERS["qwen2.5-72b"].flip < TIERS["qwen2.5-7b"].flip < TIERS["gpt-4o-mini"].flip
    assert TIERS["qwen2.5-72b"].breadth >= TIERS["gpt-4o-mini"].breadth


def test_unknown_model_raises():
    with pytest.raises(KeyError):
        SimulatedLLM("gpt-5")


def test_noise_deterministic():
    a, b = SimulatedLLM(seed=1), SimulatedLLM(seed=1)
    keys = [("attr", i) for i in range(50)]
    assert [a.noise_flip(*k) for k in keys] == [b.noise_flip(*k) for k in keys]


def test_noise_rate_matches_tier():
    llm = SimulatedLLM("gpt-4o-mini", seed=0)
    flips = sum(llm.noise_flip("x", i) for i in range(2000)) / 2000
    assert abs(flips - TIERS["gpt-4o-mini"].flip) < 0.05


def test_noise_depends_on_seed():
    a, b = SimulatedLLM(seed=1), SimulatedLLM(seed=2)
    keys = [("attr", i) for i in range(200)]
    assert [a.noise_flip(*k) for k in keys] != [b.noise_flip(*k) for k in keys]


def test_complete_charges_usage():
    llm = SimulatedLLM()
    out = llm.complete("p" * 40, "c" * 8, "test")
    assert out == "c" * 8
    assert llm.usage.prompt_tokens == 10
    assert llm.usage.completion_tokens == 2
    assert llm.usage.by_purpose["test"]["prompt"] == 10


def test_complete_charges_structured_response_as_rendered_text():
    llm = SimulatedLLM()
    crits = [
        Criterion("city", "not_missing", "city must not be missing"),
        Criterion("zip", "length", "zip length in bounds", {"lo": 5, "hi": 5}),
    ]
    assert llm.complete("p" * 40, crits, "criteria") is crits
    text = "\n".join(c.render() for c in crits)
    assert llm.usage.completion_tokens == count_tokens(text) > 0
    assert llm.usage.by_purpose["criteria"]["completion"] == count_tokens(text)


def test_choice_in_options():
    llm = SimulatedLLM()
    opts = ["a", "b", "c"]
    assert all(llm.choice(opts, i) in opts for i in range(20))


def test_uniform_in_unit_interval():
    llm = SimulatedLLM()
    assert all(0 <= llm.uniform(i) < 1 for i in range(50))


def test_render_variants():
    assert _render(None) == ""
    assert _render("x") == "x"
    assert "\n" in _render(["a", "b"])
    assert "def value_distribution" in _render(AnalysisFunction("value_distribution", "d"))
