"""Tests for the six baseline reimplementations."""
import dataclasses

import numpy as np
import pytest

from repro.baselines import activeclean, dboost, fm_ed, katara, nadeef, raha
from repro.core.metrics import prf


def _shape_ok(mask, ds):
    assert mask.shape == ds.dirty.shape
    assert list(mask.columns) == ds.attrs
    assert mask.dtypes.map(lambda d: d == bool).all()


# ------------------------------------------------------------------- dBoost


def test_dboost_shape_and_determinism(hospital_tiny, hospital_stats):
    m1 = dboost.detect(hospital_tiny, hospital_stats)
    m2 = dboost.detect(hospital_tiny, hospital_stats)
    _shape_ok(m1, hospital_tiny)
    assert m1.equals(m2)


def test_dboost_flags_numeric_outliers(hospital_tiny, hospital_stats):
    mask = dboost.detect(hospital_tiny, hospital_stats)
    types = hospital_tiny.error_types
    o_cells = [
        (i, "sample") for i in range(len(types))
        if types.iloc[i, hospital_tiny.attrs.index("sample")] == "O"
    ]
    if o_cells:
        hits = sum(mask.iloc[i][a] for i, a in o_cells)
        assert hits / len(o_cells) > 0.7


def test_dboost_ignores_missing(flights_tiny, flights_stats):
    # Table I: dBoost does not process missing-value errors
    mask = dboost.detect(flights_tiny, flights_stats)
    mv = flights_tiny.error_types.to_numpy() == "MV"
    assert mask.to_numpy()[mv].mean() == 0.0


def test_dboost_cannot_see_rule_violations(hospital_tiny, hospital_stats):
    mask = dboost.detect(hospital_tiny, hospital_stats)
    rv = hospital_tiny.error_types.to_numpy() == "RV"
    if rv.sum() >= 5:
        # RV cells look statistically normal — dBoost recall on them is low
        assert mask.to_numpy()[rv].mean() < 0.5


# ------------------------------------------------------------------- NADEEF


def test_nadeef_flags_pattern_violations(hospital_tiny, hospital_stats):
    mask = nadeef.detect(hospital_tiny, hospital_stats)
    _shape_ok(mask, hospital_tiny)
    types = hospital_tiny.error_types
    ruled = set(hospital_tiny.nadeef_attrs or hospital_tiny.patterns)
    pv = [
        (i, a) for a in ruled for i in range(len(types))
        if types.iloc[i, hospital_tiny.attrs.index(a)] in ("PV", "MV")
    ]
    if pv:
        hits = sum(mask.iloc[i][a] for i, a in pv)
        assert hits / len(pv) > 0.6


def test_nadeef_fd_violation_flags_group(hospital_tiny, hospital_stats):
    mask = nadeef.detect(hospital_tiny, hospital_stats)
    types = hospital_tiny.error_types.to_numpy()
    rv = types == "RV"
    if rv.sum() >= 3:
        assert mask.to_numpy()[rv].mean() > 0.5  # violating cells get caught...
        m = prf(mask, hospital_tiny.error_mask)
        assert m["prec"] < 0.8  # ...at the cost of flagging clean group peers


def test_nadeef_clean_dataset_mostly_unflagged(spark, hospital_tiny):
    from repro.datasets.base import Dataset
    from repro.features.stats import collect_stats

    clean_ds = Dataset(
        name="clean", dirty=hospital_tiny.clean.copy(), clean=hospital_tiny.clean.copy(),
        fds=hospital_tiny.fds, patterns=hospital_tiny.patterns,
    )
    clean_stats = collect_stats(spark, clean_ds.dirty)
    mask = nadeef.detect(clean_ds, clean_stats)
    assert mask.to_numpy().mean() < 0.02


# ------------------------------------------------------------------- KATARA


def test_katara_flags_kb_contradictions(hospital_tiny):
    mask = katara.detect(hospital_tiny)
    _shape_ok(mask, hospital_tiny)
    # every flagged cell genuinely contradicts the KB
    for (lhs, rhs), mapping in hospital_tiny.kb.items():
        flagged = mask[rhs]
        for i in np.flatnonzero(flagged.to_numpy()):
            lv = hospital_tiny.dirty[lhs].iloc[i]
            assert lv in mapping
            assert hospital_tiny.dirty[rhs].iloc[i] != mapping[lv]


def test_katara_zero_without_kb(flights_tiny):
    mask = katara.detect(flights_tiny)
    assert not mask.to_numpy().any()


# -------------------------------------------------------------- ActiveClean


def test_activeclean_tuple_granularity(flights_tiny):
    mask = activeclean.detect(flights_tiny, seed=0)
    _shape_ok(mask, flights_tiny)
    # flags are tuple-level: each row is all-true or all-false
    per_row = mask.to_numpy().sum(axis=1)
    assert set(per_row) <= {0, len(flights_tiny.attrs)}


def test_activeclean_high_recall_low_precision_on_dirty_data(flights_tiny):
    mask = activeclean.detect(flights_tiny, seed=0)
    m = prf(mask, flights_tiny.error_mask)
    assert m["rec"] > 0.6
    assert m["prec"] < 0.6


def _activeclean_on(ds, dirty, clean):
    """ActiveClean's mask on ``ds`` with its tables replaced, checked for
    shape and tuple-level flags; returns the per-tuple flags."""
    sub = dataclasses.replace(ds, dirty=dirty, clean=clean, error_types=None)
    mask = activeclean.detect(sub, seed=0)
    _shape_ok(mask, sub)
    flags = mask.to_numpy()
    assert (flags == flags[:, :1]).all()
    return flags[:, 0]


@pytest.mark.parametrize("blank_first", [False, True], ids=["as_is", "first_tuple_all_empty"])
def test_activeclean_fewer_tuples_than_budget(hospital_tiny, blank_first):
    n = 12
    assert n < activeclean.LABEL_BUDGET
    dirty, clean = hospital_tiny.dirty.iloc[:n].copy(), hospital_tiny.clean.iloc[:n]
    if blank_first:
        dirty.iloc[0] = ""
    assert dirty.ne(clean).any(axis=1).nunique() == 2  # the fit runs
    _activeclean_on(hospital_tiny, dirty, clean)


def test_activeclean_single_class_budget(flights_tiny):
    dirty = flights_tiny.dirty
    assert not _activeclean_on(flights_tiny, dirty, dirty.copy()).any()
    every_tuple_dirty = dirty.assign(**{dirty.columns[0]: dirty.iloc[:, 0] + "#"})
    assert _activeclean_on(flights_tiny, dirty, every_tuple_dirty).all()


# --------------------------------------------------------------------- Raha


def test_raha_shape_and_determinism(flights_tiny, flights_stats):
    m1 = raha.detect(flights_tiny, flights_stats, seed=0)
    m2 = raha.detect(flights_tiny, flights_stats, seed=0)
    _shape_ok(m1, flights_tiny)
    assert m1.equals(m2)


def test_raha_low_budget_limits_recall(hospital_tiny, hospital_stats):
    assert raha.LABELED_TUPLES == 2
    mask = raha.detect(hospital_tiny, hospital_stats, seed=0)
    m = prf(mask, hospital_tiny.error_mask)
    assert m["rec"] < 0.7  # 2 labeled tuples cannot cover all error patterns


def test_raha_more_labels_helps(flights_tiny, flights_stats, monkeypatch):
    low = prf(raha.detect(flights_tiny, flights_stats, seed=0), flights_tiny.error_mask)
    monkeypatch.setattr(raha, "LABELED_TUPLES", 20)
    high = prf(raha.detect(flights_tiny, flights_stats, seed=0), flights_tiny.error_mask)
    assert high["f1"] >= low["f1"] - 0.05


# -------------------------------------------------------------------- FM_ED


def test_fm_ed_mask_and_usage(spark, hospital_tiny):
    mask, usage = fm_ed.detect(spark, hospital_tiny, seed=0)
    _shape_ok(mask, hospital_tiny)
    assert usage.calls == len(hospital_tiny.dirty)  # one prompt per tuple
    assert usage.prompt_tokens > usage.completion_tokens


def test_fm_ed_catches_missing_values(spark, flights_tiny):
    mask, _ = fm_ed.detect(spark, flights_tiny, seed=0)
    mv = flights_tiny.error_types.to_numpy() == "MV"
    assert mask.to_numpy()[mv].mean() > 0.7


def test_fm_ed_misses_rule_violations(spark, hospital_tiny):
    mask, _ = fm_ed.detect(spark, hospital_tiny, seed=0)
    rv = hospital_tiny.error_types.to_numpy() == "RV"
    if rv.sum() >= 5:
        assert mask.to_numpy()[rv].mean() < 0.5  # no cross-tuple context


def test_fm_ed_input_tokens_scale_with_rows(spark, hospital_tiny, flights_tiny):
    _, u_small = fm_ed.detect(spark, flights_tiny, seed=0)
    half = flights_tiny.dirty.head(75)
    from repro.datasets.base import Dataset

    ds_half = Dataset("half", half, flights_tiny.clean.head(75))
    _, u_half = fm_ed.detect(spark, ds_half, seed=0)
    assert u_small.prompt_tokens > 1.5 * u_half.prompt_tokens
