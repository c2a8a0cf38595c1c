"""Tests for the seven dataset generators and the registry."""
import re

import pandas as pd
import pytest

from repro.datasets.base import Dataset, records, stringify
from repro.datasets.registry import PROFILES, TABLE3_DATASETS, load_dataset
from repro.datasets.schemas import GENERATORS

ALL = sorted(PROFILES)


@pytest.mark.parametrize("name", ALL)
def test_clean_generator_shape(name):
    clean, meta = GENERATORS[name](120, seed=0)
    assert len(clean) == 120
    assert len(clean.columns) >= 7
    assert all(clean[c].map(lambda v: isinstance(v, str)).all() for c in clean.columns)


@pytest.mark.parametrize("name", ALL)
def test_clean_generator_deterministic(name):
    a, _ = GENERATORS[name](80, seed=3)
    b, _ = GENERATORS[name](80, seed=3)
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("name", ALL)
def test_clean_generator_seed_sensitivity(name):
    a, _ = GENERATORS[name](80, seed=1)
    b, _ = GENERATORS[name](80, seed=2)
    assert not a.equals(b)


@pytest.mark.parametrize("name", ALL)
def test_clean_data_has_no_missing(name):
    clean, _ = GENERATORS[name](100, seed=0)
    assert (clean != "").all().all()


@pytest.mark.parametrize("name", ALL)
def test_fds_hold_on_clean_data(name):
    clean, meta = GENERATORS[name](200, seed=0)
    for lhs, rhs in meta["fds"]:
        assert clean.groupby(lhs)[rhs].nunique().max() == 1, f"FD {lhs}->{rhs} broken"


@pytest.mark.parametrize("name", ALL)
def test_patterns_match_clean_data(name):
    clean, meta = GENERATORS[name](200, seed=0)
    for attr, pattern in meta["patterns"].items():
        rx = re.compile(pattern)
        bad = [v for v in clean[attr] if not rx.fullmatch(v)]
        assert not bad, f"{attr}: clean values violate declared pattern: {bad[:3]}"


@pytest.mark.parametrize("name", ALL)
def test_kb_agrees_with_clean_data(name):
    clean, meta = GENERATORS[name](200, seed=0)
    for (lhs, rhs), mapping in meta["kb"].items():
        sub = clean[clean[lhs].isin(mapping)]
        expected = sub[lhs].map(mapping)
        assert (sub[rhs] == expected).all()


@pytest.mark.parametrize("name", ALL)
def test_load_dataset_error_rate(name):
    ds = load_dataset(name, n=300, seed=0)
    target = PROFILES[name]["error_rate"]
    assert abs(ds.error_rate - target) < 0.01


@pytest.mark.parametrize("name", ALL)
def test_load_dataset_error_types_match_mask(name):
    ds = load_dataset(name, n=200, seed=0)
    typed = (ds.error_types != "").to_numpy()
    mask = ds.error_mask.to_numpy()
    assert (typed == mask).all()


@pytest.mark.parametrize("name", TABLE3_DATASETS)
def test_expected_error_types_present(name):
    ds = load_dataset(name, n=300, seed=0)
    weights = PROFILES[name]["type_weights"]
    rates = ds.error_rate_by_type()
    for t, w in weights.items():
        if w > 0.5:  # substantial types must actually appear
            assert rates[t] > 0, f"{name}: expected some {t} errors"


def test_load_dataset_unknown():
    with pytest.raises(KeyError):
        load_dataset("nope", n=10)


@pytest.mark.parametrize("name", ALL)
def test_records_match_to_dict(name):
    """``records`` builds what ``to_dict("records")`` builds: equal dicts,
    keys in the same order, values of the same types, for row selections out
    of order, repeated and empty, and for a reordered column subset such as
    the labeler passes."""
    dirty = load_dataset(name, n=60, seed=0).dirty
    attrs = list(dirty.columns)
    tables = [
        dirty,
        dirty.iloc[[41, 3, 17, 3, 59, 0]],
        dirty.iloc[[]],
        dirty.iloc[[7, 2, 7, 30]][[attrs[3], attrs[0], attrs[-1]]],
    ]
    for table in tables:
        got, want = records(table), table.to_dict("records")
        assert got == want
        assert [list(r) for r in got] == [list(r) for r in want]
        assert [[type(v) for v in r.values()] for r in got] == [
            [type(v) for v in r.values()] for r in want
        ]


def test_stringify_handles_nan_and_numbers():
    pdf = pd.DataFrame({"a": [1.0, None, 2.5], "b": ["x", float("nan"), "y"]})
    out = stringify(pdf)
    assert out["a"].tolist() == ["1.0", "", "2.5"]
    assert out["b"].tolist() == ["x", "", "y"]


def test_error_rate_by_type_sums_to_total():
    ds = load_dataset("flights", n=250, seed=0)
    assert abs(sum(ds.error_rate_by_type().values()) - ds.error_rate) < 1e-9


def test_dataset_properties(hospital_tiny: Dataset):
    assert hospital_tiny.n_tuples == 150
    assert hospital_tiny.attrs == list(hospital_tiny.dirty.columns)
    assert hospital_tiny.error_mask.shape == hospital_tiny.dirty.shape
