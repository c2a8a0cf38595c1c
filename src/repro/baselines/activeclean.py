"""ActiveClean baseline (Krishnan et al.) — downstream-model detection.

ActiveClean interleaves cleaning with training of a downstream convex
model, using a simple tuple-level dirty/clean detector (TF features +
linear classifier) to prioritize records. The paper evaluates that
detector as an ED method and observes it "struggles to differentiate
between errors and clean data … due to its simple feature extraction
method". We reproduce the detector with numpy on the driver: a tuple's
text is lowercased and split on whitespace, its terms are hashed (CRC-32)
into :data:`SLOTS` term-frequency slots, an unregularized logistic
regression on standardized features takes :data:`STEPS` unit gradient
steps from zero on :data:`LABEL_BUDGET` ground-truth tuple labels (its
active-learning label source), and every cell of a tuple predicted dirty
is flagged. So precision stays near the cell error rate, and recall
follows the share of tuples that hold an error. Table III, 300 tuples,
seed 0, P / R: Flights 0.345 / 0.978, Rayyan 0.298 / 0.965, Beers
0.137 / 0.774, Billionaire 0.102 / 0.624, Movies 0.049 / 0.517,
Hospital 0.052 / 0.385.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from repro.datasets.base import Dataset

# Ground-truth tuple labels the detector trains on.
LABEL_BUDGET = 20
# Hashed term-frequency slots per tuple.
SLOTS = 256
# Unit gradient steps of the logistic-regression fit.
STEPS = 30


def _term_frequencies(table: pd.DataFrame) -> np.ndarray:
    X = np.zeros((len(table), SLOTS))
    for i, row in enumerate(table.itertuples(index=False)):
        for term in " ".join(map(str, row)).lower().split():
            X[i, zlib.crc32(term.encode("utf-8")) % SLOTS] += 1
    return X


def _fit_predict(X: np.ndarray, lab: list[int], y: np.ndarray) -> np.ndarray:
    """Fit on the labeled rows and predict every row."""
    mu, sd = X[lab].mean(axis=0), X[lab].std(axis=0)
    Z = (X - mu) * np.divide(1.0, sd, out=np.zeros(SLOTS), where=sd > 0)
    w, b = np.zeros(SLOTS), 0.0
    for _ in range(STEPS):
        r = 1.0 / (1.0 + np.exp(-(Z[lab] @ w + b))) - y
        w -= Z[lab].T @ r / len(lab)
        b -= r.mean()
    return Z @ w + b > 0


def detect(ds: Dataset, *, seed: int = 0) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    n = len(ds.dirty)
    lab_idx = sorted(g.choice(n, min(LABEL_BUDGET, n), replace=False))
    y = ds.error_mask.any(axis=1).to_numpy()[lab_idx].astype(float)
    if y.min() == y.max():
        # degenerate budget: everything follows the single observed label
        flags = np.full(n, bool(y[0]))
    else:
        flags = _fit_predict(_term_frequencies(ds.dirty), lab_idx, y)
    return pd.DataFrame({a: flags for a in ds.attrs}, index=ds.dirty.index)
