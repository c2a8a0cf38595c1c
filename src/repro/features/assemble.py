"""Unified feature representation (paper §III-B).

For a cell value D[i,j] the base feature is the concatenation of

* statistical features: value frequency + L1/L2/L3 pattern frequencies,
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
into the count dictionaries that the Spark statistics pass collected; it
runs on the driver over the driver-held table
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

from repro.datasets.base import ROW_ID
from repro.features.criteria import Criterion, evaluate_table, factorize
from repro.features.embedding import EMB_DIM, embed_value
from repro.features.patterns import l1_pattern, l2_pattern, l3_pattern, l3_shape
from repro.features.stats import DatasetStats

# Weight of the related attributes' base blocks in the full feature vector
# (see featurize_pdf).
RELATED_WEIGHT = 0.4


def _loo(count: int) -> int:
    return max(count - 1, 0)


def _bit(c: Criterion, value: str, row: dict | None) -> float:
    return 1.0 if c.evaluate(value, row) else 0.0


@dataclass
class FeatureContext:
    """Everything needed to featurize any cell: the collected count
    dictionaries, each attribute's related attributes and its criteria."""

    n: int
    attrs: list[str]
    related: dict[str, list[str]]
    criteria: dict[str, list[Criterion]]
    value_counts: dict[str, dict[str, int]]
    pattern_counts: dict[str, dict[str, dict[str, int]]]  # attr -> level -> counts
    vicinity: dict[tuple[str, str], dict[tuple[str, str], int]]  # (attr, q) joint

    # ----------------------------------------------------------- helpers
    def base_dim(self, attr: str) -> int:
        return 5 + len(self.related.get(attr, [])) + EMB_DIM + len(self.criteria.get(attr, []))

    def full_dim(self, attr: str) -> int:
        return self.base_dim(attr) + sum(
            self.base_dim(q) for q in self.related.get(attr, [])
        )

    def _frequency_slots(self, attr: str, value: str) -> list[float]:
        n = max(1, self.n)
        pc = self.pattern_counts[attr]
        return [
            _loo(self.value_counts[attr].get(value, 0)) / n,
            _loo(pc["l1"].get(l1_pattern(value), 0)) / n,
            _loo(pc["l2"].get(l2_pattern(value), 0)) / n,
            _loo(pc["l3"].get(l3_pattern(value), 0)) / n,
            _loo(pc["shape3"].get(l3_shape(value), 0)) / n,
        ]

    def _vicinity_slot(self, attr: str, q: str, value: str, vq: str) -> float:
        denom = _loo(self.value_counts[q].get(vq, 0))
        joint = self.vicinity.get((attr, q), {})
        return _loo(joint.get((value, vq), 0)) / denom if denom else 0.0

    def base_features(self, attr: str, value: str, row: dict) -> np.ndarray:
        """Base feature vector for one cell, slot by slot in layout order: the
        per-cell reference that :func:`featurize_pdf` reproduces.

        All frequency lookups are leave-one-out (``count - 1``): an
        observed cell contributes to every count it is looked up in, so
        without the correction a unique real value scores 1 occurrence
        while an identical synthetic training value scores 0 — a
        train/test skew the detector would exploit. LOO makes "no OTHER
        cell shares this value/pattern/pair" read as 0 for both.
        """
        out = self._frequency_slots(attr, value)
        for q in self.related.get(attr, []):
            out.append(self._vicinity_slot(attr, q, value, row.get(q, "")))
        out.extend(embed_value(value, EMB_DIM))
        out.extend(_bit(c, value, row) for c in self.criteria.get(attr, []))
        return np.asarray(out, dtype=np.float64)

    def value_slots(self, attr: str, value: str) -> list[float]:
        """The base slots that read only the value: frequencies and patterns,
        and the embedding."""
        return [*self._frequency_slots(attr, value), *embed_value(value, EMB_DIM)]

    def context_slots(self, attr: str, value: str, row: dict) -> list[float]:
        """The base slots that read the related attributes' values: vicinities."""
        return [self._vicinity_slot(attr, q, value, row.get(q, "")) for q in self.related.get(attr, [])]


def build_context(
    stats: DatasetStats,
    related: dict[str, list[str]],
    criteria: dict[str, list[Criterion]],
) -> FeatureContext:
    """Assemble a :class:`FeatureContext` from collected stats + criteria."""
    attrs = stats.attrs
    pattern_counts = {
        a: {lvl: stats.pattern_counts(a, lvl) for lvl in ("l1", "l2", "l3", "shape3")}
        for a in attrs
    }
    vicinity = {}
    for a in attrs:
        for q in related.get(a, []):
            vicinity[(a, q)] = stats.joint_counts(a, q)
    return FeatureContext(
        n=stats.n,
        attrs=attrs,
        related=related,
        criteria=criteria,
        value_counts=stats.value_counts,
        pattern_counts=pattern_counts,
        vicinity=vicinity,
    )


def _base_block(ctx: FeatureContext, pdf: pd.DataFrame, attr: str) -> np.ndarray:
    """Base features of every row's ``attr`` cell: (len(pdf), base_dim)."""
    related = ctx.related.get(attr, [])
    first_criterion = 5 + len(related) + EMB_DIM
    base = np.empty((len(pdf), ctx.base_dim(attr)))
    codes, values = factorize(pdf[attr].tolist(), len(pdf))
    per_value = np.empty((len(values), 5 + EMB_DIM))
    for i, v in enumerate(values):
        per_value[i] = ctx.value_slots(attr, v)
    base[:, :5] = per_value[codes, :5]
    base[:, 5 + len(related):first_criterion] = per_value[codes, 5:]
    if related:
        keys = [attr, *related]
        codes, contexts = factorize(zip(*(pdf[c].tolist() for c in keys)), len(pdf))
        per_key = np.empty((len(contexts), len(related)))
        for i, k in enumerate(contexts):
            per_key[i] = ctx.context_slots(attr, k[0], dict(zip(keys, k)))
        base[:, 5:5 + len(related)] = per_key[codes]
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
    propagation. ``attrs`` defaults to every attribute of ``ctx``.
    """
    attrs = ctx.attrs if attrs is None else attrs
    blocks = {
        x: _base_block(ctx, pdf, x)
        for x in dict.fromkeys(b for a in attrs for b in [a, *ctx.related.get(a, [])])
    }
    return {
        a: np.hstack([blocks[a], *(RELATED_WEIGHT * blocks[q] for q in ctx.related.get(a, []))])
        for a in attrs
    }


def features_sdf(sdf: DataFrame, ctx: FeatureContext) -> DataFrame:
    """:func:`featurize_pdf` as a Spark ``mapInPandas`` pass:
    ``(__row_id, f_<attr> array<double>, ...)``."""
    schema = ", ".join(
        [f"{ROW_ID} long"] + [f"f_{a} array<double>" for a in ctx.attrs]
    )

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            mats = featurize_pdf(ctx, pdf)
            out = {ROW_ID: pdf[ROW_ID].to_numpy()}
            for a in ctx.attrs:
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
    distinct rows: a value-equal merge could swap one for the other.
    """
    X = np.ascontiguousarray(X)
    keys = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]
