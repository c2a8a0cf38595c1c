"""Hashed character-n-gram embeddings — FastText substitute (paper §III-B).

FastText represents a word as the average of its character n-gram vectors;
the pre-trained ``.bin`` is unavailable offline, so we keep the subword
mechanism and replace learned n-gram vectors with deterministic random
projections (seeded by a stable CRC of the n-gram). This preserves the
property ZeroED's f_sem relies on: lexically similar strings (a typo and
its clean form share most n-grams) land close together, dissimilar strings
far apart. A cell value embeds as the mean over its tokens of the mean
over each token's 3-grams, L2-normalized, exactly mirroring the paper's
token-averaging formula.
"""
from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

EMB_DIM = 12


@lru_cache(maxsize=200_000)
def _ngram_vec(ngram: str) -> tuple[float, ...]:
    g = np.random.default_rng(zlib.crc32(ngram.encode("utf-8")))
    return tuple(g.standard_normal(EMB_DIM))


def _token_vec(token: str) -> np.ndarray:
    padded = f"<{token}>"
    grams = [padded[i: i + 3] for i in range(len(padded) - 2)] or [padded]
    return np.mean([_ngram_vec(gm) for gm in grams], axis=0)


@lru_cache(maxsize=100_000)
def embed_value(value: str) -> tuple[float, ...]:
    """Embed one cell value: tokenize, average token vectors, L2-normalize.
    The embedding has :data:`EMB_DIM` slots."""
    tokens = [t for t in "".join(c if c.isalnum() else " " for c in value.lower()).split() if t]
    if not tokens:
        return tuple(np.zeros(EMB_DIM))
    vec = np.mean([_token_vec(t) for t in tokens], axis=0)
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec = vec / norm
    return tuple(vec)
