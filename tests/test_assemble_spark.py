"""Tests for the unified feature representation (driver featurization and its Spark form)."""
import numpy as np
import pandas as pd
import pytest

from repro.features.assemble import (
    RELATED_WEIGHT,
    ROW_ID,
    build_context,
    collect_feature_matrices,
    distinct_rows,
    features_sdf,
    featurize_pdf,
)
from repro.features.correlation import top_related
from repro.features.criteria import Criterion, factorize
from repro.features.embedding import EMB_DIM, embed_value
from repro.llm.model import SimulatedLLM
from repro.llm.reasoning import augment_errors, derive_criteria


def _bit(c, value, row):
    return 1.0 if c.evaluate(value, row) else 0.0


def base_features(ctx, attr, value, row):
    """Base feature vector for one cell, slot by slot in layout order: the
    per-cell reference that featurize_pdf reproduces."""
    out = ctx._frequency_slots(attr, value)
    for q in ctx.related.get(attr, []):
        out.append(ctx._vicinity_slot(attr, q, value, row.get(q, "")))
    out.extend(embed_value(value))
    out.extend(_bit(c, value, row) for c in ctx.criteria.get(attr, []))
    return np.asarray(out, dtype=np.float64)


def full_features_reference(ctx, attr, row):
    """Per-row reference for featurize_pdf: f_base(own) ⊕ weighted f_base(related)."""
    parts = [base_features(ctx, attr, row.get(attr, ""), row)]
    for q in ctx.related.get(attr, []):
        parts.append(RELATED_WEIGHT * base_features(ctx, q, row.get(q, ""), row))
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def ctx(hospital_stats):
    related = top_related(hospital_stats, 2)
    criteria = {
        a: [Criterion(a, "not_missing", "nm"), Criterion(a, "length", "len", {"lo": 1, "hi": 60})]
        for a in hospital_stats.attrs
    }
    return build_context(hospital_stats, related, criteria)


@pytest.fixture(scope="module")
def feats(ctx, hospital_tiny):
    return collect_feature_matrices(hospital_tiny.dirty, ctx)


def test_dims(ctx):
    for a in ctx.stats.attrs:
        base = 5 + len(ctx.related[a]) + EMB_DIM + 2
        assert ctx.base_dim(a) == base
        assert ctx.full_dim(a) == base + sum(ctx.base_dim(q) for q in ctx.related[a])


def test_matrix_shapes(feats, ctx, hospital_tiny):
    row_ids, mats = feats
    assert list(row_ids) == list(range(len(hospital_tiny.dirty)))
    for a in ctx.stats.attrs:
        assert mats[a].shape == (len(hospital_tiny.dirty), ctx.full_dim(a))
        assert np.isfinite(mats[a]).all()


def test_features_bounded(feats, ctx):
    _, mats = feats
    for a in ctx.stats.attrs:
        assert mats[a].max() <= 1.0 + 1e-9
        assert mats[a].min() >= -1.0 - 1e-9


@pytest.fixture(scope="module")
def derived_ctx(hospital_stats, hospital_tiny):
    """A context whose criteria come from the LLM, dependency checks included."""
    related = top_related(hospital_stats, 2)
    llm = SimulatedLLM(seed=0)
    samples = hospital_tiny.dirty.sample(40, random_state=0).to_dict("records")
    criteria = {a: derive_criteria(llm, a, samples, related[a]) for a in hospital_stats.attrs}
    return build_context(hospital_stats, related, criteria)


@pytest.fixture(scope="module")
def hospital_sdf(spark, hospital_tiny):
    """The dirty table as a Spark frame with a ``ROW_ID`` column of row positions."""
    pdf = hospital_tiny.dirty.copy()
    pdf.insert(0, ROW_ID, range(len(pdf)))
    return spark.createDataFrame(pdf)


def test_spark_matches_driver_featurization(hospital_sdf, derived_ctx, hospital_tiny):
    """The mapInPandas form equals the run path's driver featurization of the
    runner's table, every cell, whatever the partitioning."""
    local = featurize_pdf(derived_ctx, hospital_tiny.dirty)
    for partitions in (1, 4):
        sdf = features_sdf(hospital_sdf.repartition(partitions), derived_ctx)
        pdf = sdf.orderBy(ROW_ID).toPandas()
        assert pdf[ROW_ID].tolist() == list(range(len(hospital_tiny.dirty)))
        for a in derived_ctx.stats.attrs:
            assert np.array_equal(np.vstack(pdf[f"f_{a}"].to_numpy()), local[a]), (partitions, a)


def test_per_key_matches_per_row_reference(derived_ctx, hospital_tiny):
    """Features computed once per key equal the per-row computation exactly."""
    assert any(
        c.kind == "dependency" for crits in derived_ctx.criteria.values() for c in crits
    )
    rows = hospital_tiny.dirty.to_dict("records")
    mats = featurize_pdf(derived_ctx, hospital_tiny.dirty)
    for a in derived_ctx.stats.attrs:
        expected = np.vstack([full_features_reference(derived_ctx, a, r) for r in rows])
        assert np.array_equal(mats[a], expected), a


def test_per_key_matches_per_row_reference_on_synthetic_rows(derived_ctx, hospital_tiny):
    """Synthetic rows (values absent from the table) featurize as the reference does."""
    llm = SimulatedLLM(seed=0)
    for a in derived_ctx.stats.attrs:
        synth = augment_errors(llm, a, hospital_tiny.dirty, 30)
        got = featurize_pdf(derived_ctx, pd.DataFrame(synth), [a])
        assert list(got) == [a]
        expected = np.vstack([full_features_reference(derived_ctx, a, r) for r in synth])
        assert np.array_equal(got[a], expected), a


def test_loo_unique_value_scores_zero(ctx):
    """A value appearing once in the data must read frequency 0 (LOO)."""
    row = {a: "" for a in ctx.stats.attrs}
    row["city"] = "value-that-does-not-exist"
    f = base_features(ctx, "city", row["city"], row)
    assert f[0] == 0.0  # value frequency


def test_loo_synth_matches_real_for_shared_value(ctx, hospital_tiny):
    """A synthetic cell carrying an existing value featurizes identically."""
    real_row = hospital_tiny.dirty.iloc[0].to_dict()
    synth_row = dict(real_row)  # same values, not present in the table
    a = "city"
    np.testing.assert_allclose(
        base_features(ctx, a, real_row[a], real_row),
        base_features(ctx, a, synth_row[a], synth_row),
    )


def test_criteria_bits_present(ctx):
    row = {a: "x" for a in ctx.stats.attrs}
    f = base_features(ctx, "city", "", row)
    # last two slots are the criteria bits; empty value fails not_missing
    assert f[-2] == 0.0  # not_missing
    assert f[-1] == 1.0  # length abstains on missing (passes)


def test_vicinity_slot_reflects_cooccurrence(ctx, hospital_tiny):
    clean = hospital_tiny.clean
    city = clean["city"].mode()[0]
    row = clean[clean["city"] == city].iloc[0].to_dict()
    q = ctx.related["state"]
    f = base_features(ctx, "state", row["state"], row)
    # vicinity features live right after the 5 frequency slots
    vic = f[5: 5 + len(q)]
    assert (vic >= 0).all() and (vic <= 1).all()


def test_distinct_rows_factorizes_bitwise():
    """``X[first][codes]`` is ``X`` bit for bit; ``first`` holds each distinct
    row's first position, in order; -0.0 and 0.0 are distinct bytes."""
    g = np.random.default_rng(0)
    base = np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 2.0], [0.5, 0.25], [1.0, 0.0]])
    X = base[g.integers(0, len(base), 60)]
    for M in (X, np.asfortranarray(X)):
        codes, first = distinct_rows(M)
        assert np.array_equal(M[first][codes].view(np.uint64), X.view(np.uint64))
        assert np.all(np.diff(first) > 0)
        assert np.array_equal(codes[first], np.arange(len(first)))
        assert np.all(first[codes] <= np.arange(len(X)))
        assert len(first) == len({r.tobytes() for r in X}) == len(base)


def sort_reference(X):
    """``distinct_rows`` by sorting: ``np.unique`` over the rows' bytes, then
    the distinct rows renumbered in first-occurrence order."""
    X = np.ascontiguousarray(X)
    keys = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]


def test_distinct_rows_matches_sort_reference():
    g = np.random.default_rng(1)
    twins = np.array([[0.0, 1.5, -0.0], [-0.0, 1.5, 0.0], [0.0, 1.5, 0.0], [-0.0, 1.5, -0.0]])
    matrices = {
        "repeated": np.round(g.random((40, 6)), 1)[g.integers(0, 40, 500)],
        "signed zeros": twins[g.integers(0, len(twins), 50)],
        # int64 (row code, label) pairs, as training_pairs factorizes them
        "pair codes": np.column_stack([g.integers(0, 9, 200), g.integers(0, 2, 200)]),
        "one row": g.random((1, 4)),
        "all distinct": g.random((30, 3)),
    }
    for name, M in matrices.items():
        codes, first = distinct_rows(M)
        ref_codes, ref_first = sort_reference(M)
        assert np.array_equal(codes, ref_codes), name
        assert np.array_equal(first, ref_first), name
        assert codes.dtype == ref_codes.dtype and first.dtype == ref_first.dtype, name
    assert len(distinct_rows(matrices["signed zeros"])[1]) == len(twins)


def dict_reference(X):
    """``distinct_rows`` by hashing: a dict numbers each row's bytes in
    first-occurrence order, and a row is a first occurrence where the
    running maximum of the codes steps up."""
    X = np.ascontiguousarray(X)
    row_bytes = X.view(np.uint8).reshape(len(X), X.dtype.itemsize * X.shape[1])
    codes, _ = factorize(map(bytes, row_bytes), len(X))
    return codes, np.flatnonzero(np.diff(np.maximum.accumulate(codes), prepend=-1))


def test_distinct_rows_matches_dict_reference(feats):
    """Equal codes and first positions on every Hospital feature matrix, on
    rows told apart only by a zero's sign or a NaN, and on no rows."""
    zeros_nan = np.array([[0.0, np.nan], [-0.0, np.nan], [0.0, 1.0], [-0.0, 1.0], [np.nan, 0.0]])
    g = np.random.default_rng(2)
    matrices = {
        **{f"hospital {a}": m for a, m in feats[1].items()},
        "signed zeros and NaN": zeros_nan[g.integers(0, len(zeros_nan), 40)],
        "empty": np.empty((0, 3)),
    }
    for name, M in matrices.items():
        codes, first = distinct_rows(M)
        ref_codes, ref_first = dict_reference(M)
        assert np.array_equal(codes, ref_codes), name
        assert np.array_equal(first, ref_first), name
    assert len(distinct_rows(matrices["signed zeros and NaN"])[1]) == len(zeros_nan)
