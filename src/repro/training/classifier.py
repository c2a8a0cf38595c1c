"""Per-attribute MLP error detector (§III-D), fit with numpy on the driver.

The paper trains a simple two-layer MLP with cross-entropy loss per
attribute over the constructed training data and applies it to every cell.
Here each attribute's detector has layers ``[dim, hidden, 2]`` with a ReLU
hidden layer and a softmax cross-entropy loss, trained with full-batch Adam
from a seeded initialization on propagated real cells plus LLM-augmented
synthetic cells. The feature matrices are already on the driver
(:func:`repro.features.assemble.collect_feature_matrices`), and a pool of a
few hundred rows fits in a handful of milliseconds, so no Spark job is
issued. Attributes whose training pool is single-class degenerate to a
constant predictor (nothing for an MLP to learn).

A pool repeats the same (feature row, label) pairs many times, and a
matrix the same feature rows (:func:`~repro.features.assemble.distinct_rows`).
The fit runs on the distinct pairs, each pair's cross-entropy weighted by
its share of the pool, which is the same mean loss over the pool's rows;
prediction runs once per distinct row of the attribute's matrix and is
gathered back to rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.features.assemble import FeatureContext, distinct_rows, featurize_pdf
from repro.training.construct import AttrTrainingData

# Adam step size and moment decay rates (Kingma & Ba's defaults except the
# step size, raised so that the configured few dozen full-batch steps fit).
LEARNING_RATE = 0.05
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class MLP:
    """A fitted ``[dim, hidden, 2]`` ReLU network."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def logits(self, X: np.ndarray) -> np.ndarray:
        return np.maximum(X @ self.W1 + self.b1, 0.0) @ self.W2 + self.b2

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Error flag per row: the dirty logit beats the clean one."""
        z = self.logits(X)
        return z[:, 1] > z[:, 0]


def _cross_entropy(z: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy of logits ``z`` weighted by ``w`` (summing to 1),
    and its gradient in ``z``."""
    z = z - z.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(len(y))
    grad = np.exp(log_p)
    grad[rows, y] -= 1.0
    return float(-(w @ log_p[rows, y])), grad * w[:, None]


def fit_mlp(
    X: np.ndarray, y: np.ndarray, *, hidden: int, steps: int, seed: int
) -> tuple[MLP, float]:
    """Fit with ``steps`` full-batch Adam steps; return the net and its final
    mean loss over the rows of ``X``.

    The steps run on the distinct (row, label) pairs, each weighted by its
    multiplicity over ``len(X)``.
    """
    codes, first = distinct_rows(np.column_stack([X, y]))
    w = np.bincount(codes) / len(codes)
    X, y = X[first], y[first].astype(int)
    g = np.random.default_rng(seed)
    dim = X.shape[1]
    # PyTorch nn.Linear's default init, U(±1/sqrt(fan_in)) for weights and
    # biases: the paper's detector is a PyTorch MLP
    b_in, b_hid = 1.0 / np.sqrt(dim), 1.0 / np.sqrt(hidden)
    params = [
        g.uniform(-b_in, b_in, (dim, hidden)),
        g.uniform(-b_in, b_in, hidden),
        g.uniform(-b_hid, b_hid, (hidden, 2)),
        g.uniform(-b_hid, b_hid, 2),
    ]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        W1, b1, W2, b2 = params
        pre = X @ W1 + b1
        h = np.maximum(pre, 0.0)
        _loss, dz = _cross_entropy(h @ W2 + b2, y, w)
        dpre = (dz @ W2.T) * (pre > 0)
        grads = [X.T @ dpre, dpre.sum(axis=0), h.T @ dz, dz.sum(axis=0)]
        for p, gr, m_i, v_i in zip(params, grads, m, v):
            m_i *= BETA1
            m_i += (1 - BETA1) * gr
            v_i *= BETA2
            v_i += (1 - BETA2) * gr**2
            p -= LEARNING_RATE * (m_i / (1 - BETA1**t)) / (np.sqrt(v_i / (1 - BETA2**t)) + EPS)
    net = MLP(*params)
    return net, _cross_entropy(net.logits(X), y, w)[0]


def train_predict_attribute(
    ctx: FeatureContext,
    attr: str,
    td: AttrTrainingData,
    X_full: np.ndarray,
    *,
    hidden: int = 16,
    max_iter: int = 60,
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Fit the attribute's MLP and predict an error flag for every row.

    Also returns the fit's convergence record: ``steps`` taken and the final
    mean training ``loss`` (``steps == 0`` and ``loss is None`` when the
    detector degenerates to a constant).
    """
    X_parts = [X_full[td.real_positions]] if td.real_positions else []
    y_parts = [np.array(td.real_labels, dtype=float)] if td.real_labels else []
    if td.synth_rows:
        X_parts.append(featurize_pdf(ctx, pd.DataFrame(td.synth_rows), [attr])[attr])
        y_parts.append(np.ones(len(td.synth_rows)))
    constant = {"steps": 0, "loss": None}
    if not X_parts:
        return np.zeros(X_full.shape[0], dtype=bool), constant
    X_train = np.vstack(X_parts)
    y_train = np.concatenate(y_parts)
    classes = set(np.unique(y_train))
    if len(classes) < 2:
        only = bool(classes.pop())
        return np.full(X_full.shape[0], only, dtype=bool), constant

    net, loss = fit_mlp(X_train, y_train, hidden=hidden, steps=max_iter, seed=seed)
    codes, first = distinct_rows(X_full)
    return net.predict(X_full[first])[codes], {"steps": max_iter, "loss": loss}


def train_predict_all(
    ctx: FeatureContext,
    training: dict[str, AttrTrainingData],
    feat_mats: dict[str, np.ndarray],
    *,
    seed: int = 0,
) -> tuple[pd.DataFrame, dict[str, dict]]:
    """Detection mask (rows × attrs, bool) from per-attribute MLPs of the
    default shape, and each attribute's convergence record (see
    :func:`train_predict_attribute`)."""
    cols, fits = {}, {}
    for attr, td in training.items():
        cols[attr], fits[attr] = train_predict_attribute(ctx, attr, td, feat_mats[attr], seed=seed)
    return pd.DataFrame(cols), fits
