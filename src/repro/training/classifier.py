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

A fit of that size is bound by numpy's per-call overhead, not by its
arithmetic, so :func:`fit_mlp` keeps the parameters, the gradients and
Adam's moments each in one flat vector with per-layer views: the backward
pass writes the gradients into their views, and one Adam update covers
every layer. The fitted weights are those of a per-layer update, bit for
bit.
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


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of the two-column logits ``z``, in place. With two
    columns a row's max and sum are one elementwise op each, the same IEEE
    operation as the row reduction."""
    z -= np.maximum(z[:, :1], z[:, 1:])
    e = np.exp(z)
    z -= np.log(e[:, :1] + e[:, 1:])
    return z


def _layers(flat: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """Views ``W1, b1, W2, b2`` of a ``[dim, HIDDEN, 2]`` network's flat
    parameter vector (or of a vector shaped like it)."""
    i = dim * HIDDEN
    j = i + HIDDEN
    return flat[:i].reshape(dim, HIDDEN), flat[i:j], flat[j:-2].reshape(HIDDEN, 2), flat[-2:]


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

    The parameters, their gradients and Adam's two moments are each one
    flat vector, whose per-layer views (:func:`_layers`) the forward and
    backward passes read and write, so each Adam update is a few operations
    over the whole vector rather than a loop over the layers. Every element
    goes through the same IEEE operations as in a per-layer update.
    """
    g = np.random.default_rng(seed)
    dim = X.shape[1]
    # PyTorch nn.Linear's default init, U(±1/sqrt(fan_in)) for weights and
    # biases: the paper's detector is a PyTorch MLP. W1 and b1 share a
    # bound, as do W2 and b2, and one draw per bound in the flat vector's
    # order gives the same values as one draw per layer.
    b_in, b_hid = 1.0 / np.sqrt(dim), 1.0 / np.sqrt(HIDDEN)
    params = np.concatenate([
        g.uniform(-b_in, b_in, (dim + 1) * HIDDEN), g.uniform(-b_hid, b_hid, 2 * HIDDEN + 2)
    ])
    grads, m, v = np.empty_like(params), np.zeros_like(params), np.zeros_like(params)
    step, denom = np.empty_like(params), np.empty_like(params)
    W1, b1, W2, b2 = _layers(params, dim)
    gW1, gb1, gW2, gb2 = _layers(grads, dim)
    rows, w_col = np.arange(len(y)), w[:, None]
    onehot = np.zeros((len(y), 2))
    onehot[rows, y] = 1.0
    for t in range(1, STEPS + 1):
        pre = X @ W1
        pre += b1
        h = np.maximum(pre, 0.0)
        z = h @ W2
        z += b2
        # the weighted cross-entropy's gradient in z: (softmax - onehot)·w
        dz = np.exp(_log_softmax(z))
        dz -= onehot
        dz *= w_col
        dpre = dz @ W2.T
        dpre *= pre > 0
        np.matmul(X.T, dpre, out=gW1)
        dpre.sum(axis=0, out=gb1)
        np.matmul(h.T, dz, out=gW2)
        dz.sum(axis=0, out=gb2)
        # m = BETA1·m + (1-BETA1)·g;  v = BETA2·v + (1-BETA2)·g²
        m *= BETA1
        np.multiply(grads, 1 - BETA1, out=step)
        m += step
        v *= BETA2
        np.square(grads, out=step)
        step *= 1 - BETA2
        v += step
        # params -= LEARNING_RATE·m̂ / (sqrt(v̂) + EPS)
        np.divide(m, 1 - BETA1**t, out=step)
        step *= LEARNING_RATE
        np.divide(v, 1 - BETA2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        params -= step
    net = MLP(W1, b1, W2, b2)
    return net, float(-(w @ _log_softmax(net.logits(X))[rows, y]))


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
