"""Tests for executable error-checking criteria."""
import pytest

from repro.features.criteria import (
    Criterion,
    is_missing,
    try_float,
)


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
