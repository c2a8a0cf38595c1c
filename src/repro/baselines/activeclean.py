"""ActiveClean baseline (Krishnan et al.) — downstream-model detection.

ActiveClean interleaves cleaning with training of a downstream convex
model, using a simple tuple-level dirty/clean detector (TF features +
linear classifier) to prioritize records. The paper evaluates that
detector as an ED method and observes it "struggles to differentiate
between errors and clean data … due to its simple feature extraction
method, leading it to treat all data as incorrect" on high-error
datasets. We reproduce the detector: tuples are featurized with
``Tokenizer`` + ``HashingTF`` over their serialized text, an MLlib
``LogisticRegression`` is trained on a small budget of ground-truth
tuple labels (its active-learning label source), and all cells of a
tuple predicted dirty are flagged — recall near 1, precision near the
cell error rate, exactly the Table III shape.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import Dataset

# Ground-truth tuple labels the detector trains on.
LABEL_BUDGET = 20


def detect(
    spark: SparkSession,
    ds: Dataset,
    *,
    seed: int = 0,
) -> pd.DataFrame:
    # MLlib loads only when ActiveClean runs, not on every harness import
    from pyspark.ml import Pipeline
    from pyspark.ml.classification import LogisticRegression
    from pyspark.ml.feature import HashingTF, Tokenizer

    g = np.random.default_rng(seed)
    n = len(ds.dirty)
    text = ds.dirty.apply(lambda r: " ".join(str(v) for v in r), axis=1)
    tuple_dirty = ds.error_mask.any(axis=1)

    lab_idx = sorted(g.choice(n, min(LABEL_BUDGET, n), replace=False))
    train = spark.createDataFrame(
        pd.DataFrame(
            {
                "text": text.iloc[lab_idx].to_numpy(),
                "label": tuple_dirty.iloc[lab_idx].astype(float).to_numpy(),
            }
        )
    )
    full = spark.createDataFrame(
        pd.DataFrame({"idx": np.arange(n), "text": text.to_numpy()})
    )
    pipe = Pipeline(
        stages=[
            Tokenizer(inputCol="text", outputCol="tokens"),
            HashingTF(inputCol="tokens", outputCol="features", numFeatures=256),
            LogisticRegression(maxIter=30),
        ]
    )
    if tuple_dirty.iloc[lab_idx].nunique() < 2:
        # degenerate budget: everything follows the single observed label
        only = bool(tuple_dirty.iloc[lab_idx].iloc[0])
        flags = np.full(n, only)
    else:
        model = pipe.fit(train)
        pred = model.transform(full).select("idx", "prediction").toPandas()
        flags = pred.sort_values("idx")["prediction"].to_numpy().astype(bool)
    mask = pd.DataFrame(False, index=ds.dirty.index, columns=ds.attrs)
    mask.loc[flags] = True
    return mask
