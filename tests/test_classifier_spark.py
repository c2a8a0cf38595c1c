"""Tests for the per-attribute MLP detector."""
import numpy as np
import pytest

from repro.features.assemble import build_context
from repro.features.correlation import top_related
from repro.features.assemble import featurize_pdf
from repro.training.classifier import MLP, fit_mlp, train_predict_attribute
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
    pred, _ = train_predict_attribute(ctx, "city", td, X, max_iter=80, seed=0)
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
    _, fit = train_predict_attribute(ctx, "city", td, X, max_iter=40, seed=0)
    assert fit["steps"] == 40
    assert 0.0 <= fit["loss"] < np.log(2)  # below a coin flip's cross-entropy
    _, const = train_predict_attribute(ctx, "city", AttrTrainingData(), X)
    assert const == {"steps": 0, "loss": None}


def reference_fit(X, y, *, hidden, steps, seed):
    """The full-row fit: Adam on the mean cross-entropy over every row."""
    g = np.random.default_rng(seed)
    b_in, b_hid = 1.0 / np.sqrt(X.shape[1]), 1.0 / np.sqrt(hidden)
    params = [
        g.uniform(-b_in, b_in, (X.shape[1], hidden)),
        g.uniform(-b_in, b_in, hidden),
        g.uniform(-b_hid, b_hid, (hidden, 2)),
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

    for t in range(1, steps + 1):
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
    for seed in (0, 1):
        net, loss = fit_mlp(X, y, hidden=16, steps=60, seed=seed)
        ref, ref_loss = reference_fit(X, y, hidden=16, steps=60, seed=seed)
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
            X[td.real_positions], np.array(td.real_labels, dtype=float), hidden=16, steps=60, seed=4
        )
        assert abs(fit["loss"] - ref_loss) <= 1e-9 * ref_loss, a
        assert np.array_equal(pred, ref.predict(X)), a
