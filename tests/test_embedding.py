"""Tests for the hashed char-n-gram embedding (FastText substitute)."""
import numpy as np
import pytest

from repro.features.embedding import EMB_DIM, embed_value


def _cos(a, b):
    a, b = np.asarray(a), np.asarray(b)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return float(a @ b / (na * nb)) if na and nb else 0.0


def test_dim():
    assert len(embed_value("hello")) == EMB_DIM
    assert len(embed_value("hello", dim=8)) == 8


def test_deterministic():
    assert embed_value("birmingham") == embed_value("birmingham")


def test_empty_is_zero():
    assert all(v == 0.0 for v in embed_value(""))
    assert all(v == 0.0 for v in embed_value("  ---  "))


def test_normalized():
    assert np.linalg.norm(embed_value("some value")) == pytest.approx(1.0)


def test_typo_closer_than_unrelated():
    base = embed_value("birmingham medical center")
    typo = embed_value("birmingam medical center")
    other = embed_value("zzqxw 77411")
    assert _cos(base, typo) > _cos(base, other) + 0.3


def test_case_insensitive_tokenization():
    assert embed_value("Austin TX") == embed_value("austin tx")


def test_different_strings_differ():
    assert embed_value("alpha") != embed_value("omega")
