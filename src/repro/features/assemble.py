"""Unified feature representation (paper §III-B).

For a cell value D[i,j] the base feature is the concatenation of

* statistical features: value frequency + the pattern frequency at each
  level of :data:`~repro.features.patterns.PATTERN_LEVELS`,
* vicinity frequencies w.r.t. each NMI-correlated attribute,
* the semantic embedding (hashed char-n-gram FastText substitute),
* the binary error-checking criteria features,

and the final representation concatenates the base features of the cell's
own attribute with those of its top-k correlated attributes:
``Feat(D[i,j]) = f_base(D[i,j]) ⊕ { f_base(D[i,q]) | a_q ∈ R_{a_j} }``.

:func:`featurize_pdf` computes each base slot once per distinct key of
the values it reads and scatters it back by row: the frequency and
pattern slots and the embedding once per distinct value, the vicinity
slots once per distinct key of the value and its related attributes'
values, and the criteria bits through
:func:`~repro.features.criteria.evaluate_table`, which knows which
columns each criterion reads. A low-cardinality attribute costs a
handful of evaluations rather than one per row. Featurization is a lookup
into the :class:`~repro.features.stats.DatasetStats` that the Spark
statistics pass collected, which :class:`FeatureContext` holds; it runs
on the driver over the driver-held table
(:func:`collect_feature_matrices`), where every later stage reads the
matrices. The same function featurizes synthetic augmentation rows, so
training-time and prediction-time features agree by construction.
:func:`features_sdf` is its Spark ``mapInPandas`` form, off the run path.

Because a feature row is a function of a few cell values, a matrix
repeats the same rows many times; :func:`distinct_rows` factorizes it so
that the per-attribute fits (k-means sampling, the detector) do their
per-row arithmetic once per distinct row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.features.criteria import Criterion, evaluate_table, factorize
from repro.features.embedding import EMB_DIM, embed_value
from repro.features.patterns import PATTERN_LEVELS
from repro.features.stats import DatasetStats

# Weight of the related attributes' base blocks in the full feature vector
# (see featurize_pdf).
RELATED_WEIGHT = 0.4
# Leading slots of a base block: the value frequency and one pattern
# frequency per level of PATTERN_LEVELS.
N_FREQ = 1 + len(PATTERN_LEVELS)


def _loo(count: int) -> int:
    """Leave-one-out count: every frequency lookup is ``count - 1``. An
    observed cell contributes to every count it is looked up in, so without
    the correction a unique real value scores 1 occurrence while an
    identical synthetic training value scores 0 — a train/test skew the
    detector would exploit. LOO makes "no OTHER cell shares this
    value/pattern/pair" read as 0 for both.
    """
    return max(count - 1, 0)


@dataclass
class FeatureContext:
    """Everything needed to featurize any cell: the :class:`DatasetStats`
    whose counts every frequency, pattern and vicinity slot reads, each
    attribute's related attributes and its criteria."""

    stats: DatasetStats
    related: dict[str, list[str]]
    criteria: dict[str, list[Criterion]]

    # ----------------------------------------------------------- helpers
    def base_dim(self, attr: str) -> int:
        return N_FREQ + len(self.related.get(attr, [])) + EMB_DIM + len(self.criteria.get(attr, []))

    def full_dim(self, attr: str) -> int:
        return self.base_dim(attr) + sum(
            self.base_dim(q) for q in self.related.get(attr, [])
        )

    def _frequency_slots(self, attr: str, value: str) -> list[float]:
        """The value's frequency, then its pattern frequency at each level
        of :data:`PATTERN_LEVELS`, in order."""
        n = max(1, self.stats.n)
        return [
            _loo(self.stats.value_counts[attr].get(value, 0)) / n,
            *(
                _loo(self.stats.pattern_counts(attr, level).get(pattern(value), 0)) / n
                for level, pattern in PATTERN_LEVELS.items()
            ),
        ]

    def _vicinity_slot(self, attr: str, q: str, value: str, vq: str) -> float:
        denom = _loo(self.stats.value_counts[q].get(vq, 0))
        joint = self.stats.joint_counts(attr, q)
        return _loo(joint.get((value, vq), 0)) / denom if denom else 0.0


def build_context(
    stats: DatasetStats,
    related: dict[str, list[str]],
    criteria: dict[str, list[Criterion]],
) -> FeatureContext:
    """The :class:`FeatureContext` over collected stats + criteria."""
    return FeatureContext(stats, related, criteria)


def _base_block(ctx: FeatureContext, pdf: pd.DataFrame, attr: str) -> np.ndarray:
    """Base features of every row's ``attr`` cell: (len(pdf), base_dim)."""
    related = ctx.related.get(attr, [])
    first_criterion = N_FREQ + len(related) + EMB_DIM
    base = np.empty((len(pdf), ctx.base_dim(attr)))
    codes, values = factorize(pdf[attr].tolist(), len(pdf))
    per_value = np.empty((len(values), N_FREQ + EMB_DIM))
    for i, v in enumerate(values):
        per_value[i] = [*ctx._frequency_slots(attr, v), *embed_value(v)]
    base[:, :N_FREQ] = per_value[codes, :N_FREQ]
    base[:, N_FREQ + len(related):first_criterion] = per_value[codes, N_FREQ:]
    if related:
        codes, contexts = factorize(zip(*(pdf[c].tolist() for c in [attr, *related])), len(pdf))
        per_key = np.empty((len(contexts), len(related)))
        for i, (v, *vqs) in enumerate(contexts):
            per_key[i] = [ctx._vicinity_slot(attr, q, v, vq) for q, vq in zip(related, vqs)]
        base[:, N_FREQ:N_FREQ + len(related)] = per_key[codes]
    base[:, first_criterion:] = evaluate_table(ctx.criteria.get(attr, []), pdf)[0]
    return base


def featurize_pdf(
    ctx: FeatureContext, pdf: pd.DataFrame, attrs: list[str] | None = None
) -> dict[str, np.ndarray]:
    """Feature matrices {attr: (len(pdf), full_dim)} for a pandas table.

    ``Feat(D[i,j]) = f_base(own) ⊕ RELATED_WEIGHT · f_base(related)``: the
    related blocks are down-weighted so that k-means distances in the
    sampling stage stay dominated by the cell's own error signals — the
    related attributes' embeddings say little about *this* cell's
    correctness, and at equal weight (with 2 related attributes they are
    2/3 of the dimensions) they wash out cluster purity and with it label
    propagation. ``attrs`` defaults to every attribute of ``ctx``. Each
    matrix is allocated once and its blocks are written into it, the
    related ones scaled in place.
    """
    attrs = ctx.stats.attrs if attrs is None else attrs
    blocks = {
        x: _base_block(ctx, pdf, x)
        for x in dict.fromkeys(b for a in attrs for b in [a, *ctx.related.get(a, [])])
    }
    mats = {}
    for a in attrs:
        X = np.empty((len(pdf), ctx.full_dim(a)))
        end = blocks[a].shape[1]
        X[:, :end] = blocks[a]
        for q in ctx.related.get(a, []):
            start, end = end, end + blocks[q].shape[1]
            np.multiply(blocks[q], RELATED_WEIGHT, out=X[:, start:end])
        mats[a] = X
    return mats


# The row-position column features_sdf carries from its input to its output.
ROW_ID = "__row_id"


def features_sdf(sdf: DataFrame, ctx: FeatureContext) -> DataFrame:
    """:func:`featurize_pdf` as a Spark ``mapInPandas`` pass:
    ``(__row_id, f_<attr> array<double>, ...)``."""
    schema = ", ".join(
        [f"{ROW_ID} long"] + [f"f_{a} array<double>" for a in ctx.stats.attrs]
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            mats = featurize_pdf(ctx, pdf)
            out = {ROW_ID: pdf[ROW_ID].to_numpy()}
            for a in ctx.stats.attrs:
                out[f"f_{a}"] = list(mats[a])
            yield pd.DataFrame(out)

    return sdf.mapInPandas(run, schema=schema)


def collect_feature_matrices(
    table: pd.DataFrame, ctx: FeatureContext
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Featurize the driver-held table: (row positions, {attr: X matrix})."""
    return np.arange(len(table)), featurize_pdf(ctx, table)


def distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(codes, first)``: each row's distinct-row code, and each distinct
    row's first position, in first-occurrence order, so that
    ``X[first][codes]`` is ``X`` bit for bit.

    Rows are compared by their bytes, so ``-0.0`` and ``0.0`` make two
    distinct rows: a value-equal merge could swap one for the other. One
    sort of the rows, each viewed as a single opaque item, groups them.
    """
    X = np.ascontiguousarray(X)
    keys = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # np.unique numbers the distinct rows in byte order: renumber them in
    # order of first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]
