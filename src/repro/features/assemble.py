"""Unified feature representation (paper §III-B).

For a cell value D[i,j] the base feature is the concatenation of

* statistical features: value frequency + L1/L2/L3 pattern frequencies,
* vicinity frequencies w.r.t. each NMI-correlated attribute,
* the semantic embedding (hashed char-n-gram FastText substitute),
* the binary error-checking criteria features,

and the final representation concatenates the base features of the cell's
own attribute with those of its top-k correlated attributes:
``Feat(D[i,j]) = f_base(D[i,j]) ⊕ { f_base(D[i,q]) | a_q ∈ R_{a_j} }``.

A cell's base features read only its own value and the values of its
attribute's related attributes (the dependency criteria check a related
attribute), so :func:`featurize_pdf` computes each attribute's base block
once per distinct key of those values and gathers rows by key; low-
cardinality attributes cost a handful of evaluations rather than one per
row. Featurization runs as a Spark ``mapInPandas`` pass over the dirty
table, parameterized by a picklable :class:`FeatureContext` holding the
(broadcastable) count dictionaries and criteria specs. The same function
featurizes synthetic augmentation rows on the driver, so training-time and
prediction-time features agree by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.datasets.base import ROW_ID
from repro.features.criteria import Criterion
from repro.features.embedding import EMB_DIM, embed_value
from repro.features.patterns import l1_pattern, l2_pattern, l3_pattern, l3_shape
from repro.features.stats import DatasetStats


@dataclass
class FeatureContext:
    """Everything needed to featurize any cell, picklable for Spark closures."""

    n: int
    attrs: list[str]
    related: dict[str, list[str]]
    criteria: dict[str, list[Criterion]]
    value_counts: dict[str, dict[str, int]]
    pattern_counts: dict[str, dict[str, dict[str, int]]]  # attr -> level -> counts
    vicinity: dict[tuple[str, str], dict[tuple[str, str], int]]  # (attr, q) joint
    emb_dim: int = EMB_DIM
    related_weight: float = 0.4
    _dim_cache: dict = field(default_factory=dict, repr=False)

    # ----------------------------------------------------------- helpers
    def base_dim(self, attr: str) -> int:
        if attr not in self._dim_cache:
            self._dim_cache[attr] = (
                5 + len(self.related.get(attr, [])) + self.emb_dim
                + len(self.criteria.get(attr, []))
            )
        return self._dim_cache[attr]

    def full_dim(self, attr: str) -> int:
        return self.base_dim(attr) + sum(
            self.base_dim(q) for q in self.related.get(attr, [])
        )

    def base_features(self, attr: str, value: str, row: dict) -> np.ndarray:
        """Base feature vector for one cell.

        All frequency lookups are leave-one-out (``count - 1``): an
        observed cell contributes to every count it is looked up in, so
        without the correction a unique real value scores 1 occurrence
        while an identical synthetic training value scores 0 — a
        train/test skew the detector would exploit. LOO makes "no OTHER
        cell shares this value/pattern/pair" read as 0 for both.
        """
        n = max(1, self.n)
        loo = lambda c: max(c - 1, 0)  # noqa: E731
        vc = self.value_counts[attr]
        pc = self.pattern_counts[attr]
        out = [
            loo(vc.get(value, 0)) / n,
            loo(pc["l1"].get(l1_pattern(value), 0)) / n,
            loo(pc["l2"].get(l2_pattern(value), 0)) / n,
            loo(pc["l3"].get(l3_pattern(value), 0)) / n,
            loo(pc["shape3"].get(l3_shape(value), 0)) / n,
        ]
        for q in self.related.get(attr, []):
            vq = row.get(q, "")
            denom = loo(self.value_counts[q].get(vq, 0))
            joint = self.vicinity.get((attr, q), {})
            out.append(loo(joint.get((value, vq), 0)) / denom if denom else 0.0)
        out.extend(embed_value(value, self.emb_dim))
        for c in self.criteria.get(attr, []):
            out.append(1.0 if c.evaluate(value, row) else 0.0)
        return np.asarray(out, dtype=np.float64)

    def key_attrs(self, attr: str) -> list[str]:
        """The attributes whose values :meth:`base_features` reads for ``attr``:
        itself, its related attributes and its dependency criteria's
        determining attributes."""
        keys = [attr, *self.related.get(attr, [])]
        for c in self.criteria.get(attr, []):
            if c.kind == "dependency" and c.params["other"] not in keys:
                keys.append(c.params["other"])
        return keys


def build_context(
    stats: DatasetStats,
    related: dict[str, list[str]],
    criteria: dict[str, list[Criterion]],
    emb_dim: int = EMB_DIM,
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
        emb_dim=emb_dim,
    )


def featurize_pdf(
    ctx: FeatureContext, pdf: pd.DataFrame, attrs: list[str] | None = None
) -> dict[str, np.ndarray]:
    """Feature matrices {attr: (len(pdf), full_dim)} for a pandas chunk.

    ``Feat(D[i,j]) = f_base(own) ⊕ related_weight · f_base(related)``: the
    related blocks are down-weighted so that k-means distances in the
    sampling stage stay dominated by the cell's own error signals — the
    related attributes' embeddings say little about *this* cell's
    correctness, and at equal weight (with 2 related attributes they are
    2/3 of the dimensions) they wash out cluster purity and with it label
    propagation. ``attrs`` defaults to every attribute of ``ctx``.
    """
    attrs = ctx.attrs if attrs is None else attrs
    blocks: dict[str, np.ndarray] = {}
    for x in dict.fromkeys(b for a in attrs for b in [a, *ctx.related.get(a, [])]):
        keys = ctx.key_attrs(x)
        index: dict[tuple, int] = {}
        codes = np.fromiter(
            (index.setdefault(k, len(index)) for k in zip(*(pdf[c].tolist() for c in keys))),
            dtype=np.intp,
            count=len(pdf),
        )
        base = np.zeros((len(index), ctx.base_dim(x)))
        for i, k in enumerate(index):
            base[i] = ctx.base_features(x, k[0], dict(zip(keys, k)))
        blocks[x] = base[codes]
    return {
        a: np.hstack([blocks[a], *(ctx.related_weight * blocks[q] for q in ctx.related.get(a, []))])
        for a in attrs
    }


def features_sdf(sdf: DataFrame, ctx: FeatureContext) -> DataFrame:
    """Spark featurization pass: ``(__row_id, f_<attr> array<double>, ...)``."""
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
    feat_sdf: DataFrame, attrs: list[str]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Collect the featurized table: (sorted row_ids, {attr: X matrix})."""
    pdf = feat_sdf.toPandas().sort_values(ROW_ID).reset_index(drop=True)
    row_ids = pdf[ROW_ID].to_numpy()
    return row_ids, {a: np.vstack(pdf[f"f_{a}"].to_numpy()) for a in attrs}
