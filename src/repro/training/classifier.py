"""Per-attribute MLP error detector (§III-D), fit with numpy on the driver.

The paper trains a simple two-layer MLP with cross-entropy loss per
attribute over the constructed training data and applies it to every cell.
Here each attribute's detector has layers ``[dim, HIDDEN, 2]`` with a ReLU
hidden layer and a softmax cross-entropy loss, trained with ``STEPS``
full-batch Adam steps from a seeded initialization on propagated real
cells plus LLM-augmented synthetic cells. The feature matrices are
already on the driver
(:func:`repro.features.assemble.collect_feature_matrices`), and a pool of
a few hundred rows fits in a handful of milliseconds, so no Spark job is
issued. Attributes whose training pool is single-class degenerate to a
constant predictor (nothing for an MLP to learn).

A pool repeats the same (feature row, label) pairs many times, and a
matrix the same feature rows (:func:`~repro.features.assemble.distinct_rows`).
The fit runs on the distinct pairs, each pair's cross-entropy weighted by
its share of the pool, which is the same mean loss over the pool's rows;
prediction runs once per distinct row of the attribute's matrix and is
gathered back to rows. The matrix is factorized once, and its codes serve
both. The pool is never copied out: its real rows are positions in the
matrix, so :func:`training_pairs` finds the distinct pairs from those
rows' codes, with the synthetic rows merged into the same codes by their
bytes, and copies only the distinct pairs' rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.features.assemble import FeatureContext, distinct_rows, featurize_pdf
from repro.training.construct import AttrTrainingData

# The detector's hidden width and its number of full-batch Adam steps.
HIDDEN = 16
STEPS = 60
# Adam step size and moment decay rates (Kingma & Ba's defaults except the
# step size, raised so that the few dozen full-batch steps fit).
LEARNING_RATE = 0.05
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class MLP:
    """A fitted ``[dim, HIDDEN, 2]`` ReLU network."""

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


def training_pairs(
    X_full: np.ndarray,
    codes: np.ndarray,
    positions: list[int],
    labels: list[int],
    X_synth: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool's distinct (row, label) pairs ``(X, y, w)``, without building
    the pool.

    The pool is the rows of ``X_full`` at ``positions`` with ``labels``,
    then the rows of ``X_synth`` labelled 1; ``codes`` is ``X_full``'s
    :func:`~repro.features.assemble.distinct_rows` factorization. The pairs
    come in the pool's first-occurrence order and ``w`` is each pair's share
    of the pool, as ``distinct_rows(np.column_stack([pool, pool_labels]))``
    gives them: rows are equal when their bytes are.
    """
    positions = np.asarray(positions, dtype=np.intp)
    y = np.concatenate([np.asarray(labels, dtype=np.int64), np.ones(len(X_synth), dtype=np.int64)])
    # merge the synthetic rows into the code space of the pool's real rows
    _, at, inv = np.unique(codes[positions], return_index=True, return_inverse=True)
    merged, _ = distinct_rows(np.vstack([X_full[positions[at]], X_synth]))
    row_codes = merged[np.concatenate([inv, len(at) + np.arange(len(X_synth))])]
    pair_codes, first = distinct_rows(np.column_stack([row_codes, y]))
    # first positions ascend, so the real rows' pairs precede the synthetic ones
    n_real = np.searchsorted(first, len(positions))
    X = np.vstack([X_full[positions[first[:n_real]]], X_synth[first[n_real:] - len(positions)]])
    return X, y[first], np.bincount(pair_codes) / len(pair_codes)


def fit_mlp(X: np.ndarray, y: np.ndarray, w: np.ndarray, *, seed: int) -> tuple[MLP, float]:
    """Fit with :data:`STEPS` full-batch Adam steps on the distinct (row,
    label) pairs ``X``, ``y``, each pair's cross-entropy weighted by its share
    ``w`` of the pool (see :func:`training_pairs`); return the net and its
    final mean loss over the pool.
    """
    g = np.random.default_rng(seed)
    dim = X.shape[1]
    # PyTorch nn.Linear's default init, U(±1/sqrt(fan_in)) for weights and
    # biases: the paper's detector is a PyTorch MLP
    b_in, b_hid = 1.0 / np.sqrt(dim), 1.0 / np.sqrt(HIDDEN)
    params = [
        g.uniform(-b_in, b_in, (dim, HIDDEN)),
        g.uniform(-b_in, b_in, HIDDEN),
        g.uniform(-b_hid, b_hid, (HIDDEN, 2)),
        g.uniform(-b_hid, b_hid, 2),
    ]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, STEPS + 1):
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
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Fit the attribute's MLP and predict an error flag for every row.

    Also returns the fit's convergence record: ``steps`` taken and the final
    mean training ``loss`` (``steps == 0`` and ``loss is None`` when the
    detector degenerates to a constant).
    """
    classes = set(td.real_labels) | ({1} if td.synth_rows else set())
    if len(classes) < 2:
        only = bool(classes.pop()) if classes else False
        return np.full(X_full.shape[0], only), {"steps": 0, "loss": None}

    X_synth = (
        featurize_pdf(ctx, pd.DataFrame(td.synth_rows), [attr])[attr]
        if td.synth_rows
        else np.empty((0, X_full.shape[1]))
    )
    codes, first = distinct_rows(X_full)
    net, loss = fit_mlp(
        *training_pairs(X_full, codes, td.real_positions, td.real_labels, X_synth), seed=seed
    )
    return net.predict(X_full[first])[codes], {"steps": STEPS, "loss": loss}


def train_predict_all(
    ctx: FeatureContext,
    training: dict[str, AttrTrainingData],
    feat_mats: dict[str, np.ndarray],
    *,
    seed: int = 0,
) -> tuple[pd.DataFrame, dict[str, dict]]:
    """Detection mask (rows × attrs, bool) from per-attribute MLPs, and each
    attribute's convergence record (see :func:`train_predict_attribute`)."""
    cols, fits = {}, {}
    for attr, td in training.items():
        cols[attr], fits[attr] = train_predict_attribute(ctx, attr, td, feat_mats[attr], seed=seed)
    return pd.DataFrame(cols), fits
