"""Tests for executable error-checking criteria."""
import numpy as np
import pandas as pd
import pytest

from repro.features.criteria import (
    Criterion,
    evaluate_table,
    is_missing,
    try_float,
)
from repro.llm.model import SimulatedLLM
from repro.llm.reasoning import augment_errors, derive_criteria, refine_criteria


@pytest.mark.parametrize(
    "value,expected",
    [
        ("", True), ("null", True), ("N/A", True), ("-", True),
        (" unknown ", True), ("abc", False), ("0", False), (None, True),
    ],
)
def test_is_missing(value, expected):
    assert is_missing(value) is expected


@pytest.mark.parametrize(
    "value,expected",
    [
        ("1.5", 1.5), ("-2", -2.0), ("abc", None), ("", None),
        ("nan", None), ("inf", None), ("1e3", 1000.0),
    ],
)
def test_try_float(value, expected):
    assert try_float(value) == expected


def test_not_missing_criterion():
    c = Criterion("a", "not_missing", "no nulls")
    assert c.evaluate("x", {}) and not c.evaluate("", {})


def test_pattern_criterion_l2():
    c = Criterion("a", "pattern", "fmt", {"level": "l2", "patterns": {"D[2]S[1]"}})
    assert c.evaluate("85%", {})
    assert not c.evaluate("85", {})


def test_pattern_criterion_shape():
    c = Criterion("a", "pattern", "fmt", {"level": "shape3", "patterns": {"uSu"}})
    assert c.evaluate("foo bar", {})
    assert not c.evaluate("FOO BAR", {})


def test_domain_criterion():
    c = Criterion("a", "domain", "dom", {"values": {"x", "y"}})
    assert c.evaluate("x", {}) and not c.evaluate("z", {})


def test_range_criterion():
    c = Criterion("a", "range", "rng", {"lo": 0.0, "hi": 10.0})
    assert c.evaluate("5", {})
    assert not c.evaluate("50", {})
    assert not c.evaluate("abc", {})  # unparseable fails a numeric check


def test_length_criterion():
    c = Criterion("a", "length", "len", {"lo": 2, "hi": 4})
    assert c.evaluate("abc", {})
    assert not c.evaluate("a", {}) and not c.evaluate("abcde", {})


def test_dependency_criterion_and_applicability():
    c = Criterion(
        "state", "dependency", "dep",
        {"other": "city", "mapping": {"austin": {"tx"}}},
    )
    assert c.evaluate("tx", {"city": "austin"})
    assert not c.evaluate("ca", {"city": "austin"})
    # unknown lhs: abstains (passes) and reports not applicable
    assert c.evaluate("ca", {"city": "paris"})
    assert not c.applicable("ca", {"city": "paris"})
    assert c.applicable("ca", {"city": "austin"})


def test_non_dependency_always_applicable():
    c = Criterion("a", "length", "len", {"lo": 1, "hi": 2})
    assert c.applicable("zzz", {})


def test_missing_value_abstains_on_content_checks():
    c = Criterion("a", "range", "rng", {"lo": 0, "hi": 1})
    assert c.evaluate("", {})  # not_missing owns the missing signal


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        Criterion("a", "bogus", "x").evaluate("v", {})


def test_render_is_texty():
    c = Criterion("a", "domain", "dom", {"values": {"x"}})
    assert "def check_domain_a" in c.render()


def test_reads():
    assert Criterion("a", "length", "len", {"lo": 1, "hi": 2}).reads == ("a",)
    dep = Criterion("a", "dependency", "dep", {"other": "b", "mapping": {}})
    assert dep.reads == ("a", "b")


def per_row_reference(criteria, rows):
    """Per-row evaluate/applicable of every criterion: (passes, applicable)."""
    passes = [[c.evaluate(r[c.attr], r) for c in criteria] for r in rows]
    applicable = [[c.applicable(r[c.attr], r) for c in criteria] for r in rows]
    shape = (len(rows), len(criteria))
    return np.array(passes, dtype=bool).reshape(shape), np.array(applicable, dtype=bool).reshape(shape)


@pytest.fixture(scope="module")
def llm_criteria(hospital_tiny):
    """Derived and refined criteria of every attribute, dependency checks included."""
    dirty, mask = hospital_tiny.dirty, hospital_tiny.error_mask
    rows = dirty.to_dict("records")
    llm = SimulatedLLM(seed=0)
    criteria = []
    for a in dirty.columns:
        related = [b for b in dirty.columns if b != a]
        clean = ~mask[a].to_numpy()
        criteria += derive_criteria(llm, a, rows[:40], related)
        criteria += refine_criteria(
            llm, a, dirty[a][~clean].tolist(), dirty[a][clean].tolist(),
            [r for r, ok in zip(rows, clean) if ok], related,
        )
    assert any(c.kind == "dependency" for c in criteria)
    return criteria


def test_evaluate_table_matches_per_row(llm_criteria, hospital_tiny):
    rows = hospital_tiny.dirty.to_dict("records")
    passes, applicable = evaluate_table(llm_criteria, hospital_tiny.dirty)
    ref_passes, ref_applicable = per_row_reference(llm_criteria, rows)
    assert passes.shape == (len(rows), len(llm_criteria))
    assert np.array_equal(passes, ref_passes)
    assert np.array_equal(applicable, ref_applicable)
    assert not applicable.all()  # some dependency check abstains


def test_evaluate_table_matches_per_row_on_synthetic_rows(llm_criteria, hospital_tiny):
    """Synthetic rows carry values the table does not."""
    llm = SimulatedLLM(seed=0)
    synth = [r for a in hospital_tiny.dirty.columns for r in augment_errors(llm, a, hospital_tiny.dirty, 20)]
    passes, applicable = evaluate_table(llm_criteria, pd.DataFrame(synth))
    ref_passes, ref_applicable = per_row_reference(llm_criteria, synth)
    assert np.array_equal(passes, ref_passes)
    assert np.array_equal(applicable, ref_applicable)


def test_evaluate_table_degenerate_inputs():
    table = pd.DataFrame({"a": ["x", "y", "x"], "b": ["", "null", "n/a"]})
    dep = Criterion("a", "dependency", "dep", {"other": "b", "mapping": {"": {"x"}, "u": {"y"}}})
    criteria = [Criterion("b", "not_missing", "nm"), Criterion("b", "length", "len", {"lo": 5, "hi": 9}), dep]
    # zero criteria
    passes, applicable = evaluate_table([], table)
    assert passes.shape == applicable.shape == (3, 0)
    # zero rows
    passes, applicable = evaluate_table(criteria, table.iloc[:0])
    assert passes.shape == applicable.shape == (0, 3)
    # an all-missing column: not_missing fails, content checks abstain, and a
    # dependency on it applies only where its mapping knows the missing token
    passes, applicable = evaluate_table(criteria, table)
    ref = per_row_reference(criteria, table.to_dict("records"))
    assert np.array_equal(passes, ref[0]) and np.array_equal(applicable, ref[1])
    assert passes[:, :2].tolist() == [[False, True]] * 3
    assert applicable[:, 2].tolist() == [True, False, False]
    assert passes[:, 2].tolist() == [True, True, True]
