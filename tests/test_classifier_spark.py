"""Tests for the per-attribute MLP detector."""
import numpy as np
import pytest

from repro.features.assemble import build_context
from repro.features.correlation import top_related
from repro.training.classifier import train_predict_attribute
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
