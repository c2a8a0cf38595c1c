"""Tests for the per-attribute MLP detector."""
import numpy as np
import pytest

from repro.features.assemble import build_context, distinct_rows, featurize_pdf
from repro.features.correlation import top_related
from repro.training.classifier import (
    BETA1, BETA2, EPS, HIDDEN, LEARNING_RATE, MLP, STEPS, fit_mlp, train_predict_attribute,
    training_pairs,
)
from repro.training.construct import AttrTrainingData


@pytest.fixture(scope="module")
def ctx(hospital_stats):
    return build_context(
        hospital_stats, top_related(hospital_stats, 1), {a: [] for a in hospital_stats.attrs}
    )


def test_single_class_guard_clean(ctx):
    td = AttrTrainingData(real_positions=[0, 1, 2], real_labels=[0, 0, 0])
    X = np.random.default_rng(0).random((10, 4))
    pred, _ = train_predict_attribute(ctx, "city", td, X)
    assert pred.dtype == bool and not pred.any()


def test_single_class_guard_dirty(ctx):
    td = AttrTrainingData(real_positions=[0, 1], real_labels=[1, 1])
    X = np.random.default_rng(0).random((6, 4))
    pred, _ = train_predict_attribute(ctx, "city", td, X)
    assert pred.all()


def test_empty_training(ctx):
    td = AttrTrainingData()
    X = np.random.default_rng(0).random((5, 4))
    pred, _ = train_predict_attribute(ctx, "city", td, X)
    assert not pred.any()


def test_learns_separable_signal(ctx):
    g = np.random.default_rng(0)
    X = g.random((200, 6))
    y = (X[:, 2] > 0.5).astype(int)
    td = AttrTrainingData(real_positions=list(range(150)), real_labels=list(y[:150]))
    pred, _ = train_predict_attribute(ctx, "city", td, X, seed=0)
    acc = (pred == y.astype(bool)).mean()
    assert acc > 0.9


def test_same_seed_same_prediction(ctx):
    g = np.random.default_rng(1)
    X = g.normal(size=(120, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    td = AttrTrainingData(real_positions=list(range(80)), real_labels=list(y[:80]))
    a, fit_a = train_predict_attribute(ctx, "city", td, X, seed=5)
    b, fit_b = train_predict_attribute(ctx, "city", td, X, seed=5)
    assert (a == b).all()
    assert fit_a == fit_b


def test_convergence_record(ctx):
    g = np.random.default_rng(2)
    X = g.random((100, 4))
    y = (X[:, 1] > 0.5).astype(int)
    td = AttrTrainingData(real_positions=list(range(100)), real_labels=list(y))
    _, fit = train_predict_attribute(ctx, "city", td, X, seed=0)
    assert fit["steps"] == STEPS
    assert 0.0 <= fit["loss"] < np.log(2)  # below a coin flip's cross-entropy
    _, const = train_predict_attribute(ctx, "city", AttrTrainingData(), X)
    assert const == {"steps": 0, "loss": None}


def reference_fit(X, y, *, seed):
    """The full-row fit: Adam on the mean cross-entropy over every row."""
    g = np.random.default_rng(seed)
    b_in, b_hid = 1.0 / np.sqrt(X.shape[1]), 1.0 / np.sqrt(HIDDEN)
    params = [
        g.uniform(-b_in, b_in, (X.shape[1], HIDDEN)),
        g.uniform(-b_in, b_in, HIDDEN),
        g.uniform(-b_hid, b_hid, (HIDDEN, 2)),
        g.uniform(-b_hid, b_hid, 2),
    ]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    y = y.astype(int)
    rows = np.arange(len(y))

    def cross_entropy(z):
        z = z - z.max(axis=1, keepdims=True)
        log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        grad = np.exp(log_p)
        grad[rows, y] -= 1.0
        return float(-log_p[rows, y].mean()), grad / len(y)

    for t in range(1, STEPS + 1):
        W1, b1, W2, b2 = params
        pre = X @ W1 + b1
        h = np.maximum(pre, 0.0)
        _, dz = cross_entropy(h @ W2 + b2)
        dpre = (dz @ W2.T) * (pre > 0)
        grads = [X.T @ dpre, dpre.sum(axis=0), h.T @ dz, dz.sum(axis=0)]
        for p, gr, m_i, v_i in zip(params, grads, m, v):
            m_i *= 0.9
            m_i += 0.1 * gr
            v_i *= 0.999
            v_i += 0.001 * gr**2
            p -= 0.05 * (m_i / (1 - 0.9**t)) / (np.sqrt(v_i / (1 - 0.999**t)) + 1e-8)
    net = MLP(*params)
    return net, cross_entropy(net.logits(X))[0]


def test_distinct_pair_fit_matches_full_row_fit():
    """A pool that repeats rows, some under both labels: the weighted fit on
    distinct (row, label) pairs has the full-row fit's loss and predictions."""
    g = np.random.default_rng(3)
    base = np.round(g.random((30, 6)), 2)
    idx = g.integers(0, 30, 400)
    X = base[idx]
    y = (X[:, 0] + X[:, 1] > 1).astype(float)
    y[:25] = 1 - y[:25]
    pairs = training_pairs(X, distinct_rows(X)[0], range(len(X)), y, np.empty((0, X.shape[1])))
    for seed in (0, 1):
        net, loss = fit_mlp(*pairs, seed=seed)
        ref, ref_loss = reference_fit(X, y, seed=seed)
        assert abs(loss - ref_loss) <= 1e-9 * ref_loss
        assert np.array_equal(net.predict(base), ref.predict(base))


def test_detector_matches_full_row_fit_on_hospital(ctx, hospital_tiny):
    mats = featurize_pdf(ctx, hospital_tiny.dirty)
    for a in ["city", "state", "zip_code", "condition", "measure_code"]:
        X = mats[a]
        assert len(np.unique(X, axis=0)) < len(X)
        y = hospital_tiny.error_mask[a].to_numpy().astype(int)
        y[::7] = 1  # both classes in every pool
        td = AttrTrainingData(real_positions=list(range(0, len(X), 2)), real_labels=list(y[::2]))
        pred, fit = train_predict_attribute(ctx, a, td, X, seed=4)
        ref, ref_loss = reference_fit(
            X[td.real_positions], np.array(td.real_labels, dtype=float), seed=4
        )
        assert abs(fit["loss"] - ref_loss) <= 1e-9 * ref_loss, a
        assert np.array_equal(pred, ref.predict(X)), a


def test_training_pairs_match_materialized_pool():
    """Pairs built from row codes equal the distinct (row, label) pairs of the
    materialized pool, in order and weight, with synthetic rows byte-equal to
    real rows of either label and -0.0/0.0 twins among them."""
    g = np.random.default_rng(7)
    base = np.round(g.random((12, 5)), 1)
    base[3, 2] = 0.0
    X_full = base[g.integers(0, 12, 90)]
    positions = g.permutation(90)[:60]
    labels = g.integers(0, 2, 60)
    dirty, clean = positions[np.flatnonzero(labels == 1)[0]], positions[np.flatnonzero(labels == 0)[0]]
    zero = X_full[np.flatnonzero((X_full == base[3]).all(axis=1))[0]]
    signed = zero.copy()
    signed[2] = -0.0
    X_synth = np.vstack(
        [g.random((3, 5)), X_full[dirty], X_full[clean], signed, zero, signed, X_full[clean]]
    )
    pool = np.vstack([X_full[positions], X_synth])
    y_pool = np.concatenate([labels, np.ones(len(X_synth))])
    codes, first = distinct_rows(np.column_stack([pool, y_pool]))
    ref = pool[first], y_pool[first].astype(int), np.bincount(codes) / len(codes)

    X, y, w = training_pairs(X_full, distinct_rows(X_full)[0], positions, labels, X_synth)
    assert np.array_equal(X.view(np.uint64), ref[0].view(np.uint64))
    assert np.array_equal(y, ref[1])
    assert np.array_equal(w, ref[2])
    for seed in (0, 3):
        assert fit_mlp(X, y, w, seed=seed)[1] == fit_mlp(*ref, seed=seed)[1]


def reference_adam_fit(X, y, w, *, seed):
    """The per-layer form of :func:`fit_mlp`: one Adam update per parameter
    array, and the weighted cross-entropy and its gradient in one function."""

    def cross_entropy(z):
        z = z - z.max(axis=1, keepdims=True)
        log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        rows = np.arange(len(y))
        grad = np.exp(log_p)
        grad[rows, y] -= 1.0
        return float(-(w @ log_p[rows, y])), grad * w[:, None]

    g = np.random.default_rng(seed)
    dim = X.shape[1]
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
        _loss, dz = cross_entropy(h @ W2 + b2)
        dpre = (dz @ W2.T) * (pre > 0)
        grads = [X.T @ dpre, dpre.sum(axis=0), h.T @ dz, dz.sum(axis=0)]
        for p, gr, m_i, v_i in zip(params, grads, m, v):
            m_i *= BETA1
            m_i += (1 - BETA1) * gr
            v_i *= BETA2
            v_i += (1 - BETA2) * gr**2
            p -= LEARNING_RATE * (m_i / (1 - BETA1**t)) / (np.sqrt(v_i / (1 - BETA2**t)) + EPS)
    net = MLP(*params)
    return net, cross_entropy(net.logits(X))[0]


def assert_bit_equal_fit(X, y, w, seed):
    net, loss = fit_mlp(X, y, w, seed=seed)
    ref, ref_loss = reference_adam_fit(X, y, w, seed=seed)
    for name in ("W1", "b1", "W2", "b2"):
        got, want = getattr(net, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert loss == ref_loss


@pytest.mark.parametrize(
    "rows, dim", [(2, 1), (9, 1), (2, 30), (145, 20), (238, 45), (60, 90)]
)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_flat_fit_matches_per_layer_reference(rows, dim, seed):
    """The flat-state fit gives the per-layer Adam loop's weights and loss,
    bit for bit; ``rows == 2`` is one distinct pair per class."""
    g = np.random.default_rng(100 * seed + dim)
    X = g.normal(size=(rows, dim))
    X[g.random((rows, dim)) < 0.2] = 0.0  # ReLU ties and zero gradients
    y = g.integers(0, 2, rows)
    y[:2] = [0, 1]
    w = g.integers(1, 5, rows).astype(float)
    assert_bit_equal_fit(X, y, w / w.sum(), seed)


def test_flat_fit_matches_per_layer_reference_on_hospital(ctx, hospital_tiny):
    mats = featurize_pdf(ctx, hospital_tiny.dirty)
    for a in hospital_tiny.attrs:
        X = mats[a]
        y = hospital_tiny.error_mask[a].to_numpy().astype(int)
        y[::7] = 1  # both classes in every pool
        positions = list(range(0, len(X), 2))
        pairs = training_pairs(X, distinct_rows(X)[0], positions, list(y[::2]), X[[1, 3]])
        for seed in (0, 4):
            assert_bit_equal_fit(*pairs, seed)
