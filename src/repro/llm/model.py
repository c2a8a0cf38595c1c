"""Deterministic simulated LLM with quality tiers (paper Table V models).

A deterministic rule-induction engine (:mod:`repro.llm.reasoning`)
produces each call's structured response. The call charges the rendered
prompt and that response, rendered to text, to
:class:`~repro.llm.tokens.Usage`. The engine sees only what a real LLM
would: serialized sample tuples and distribution reports — never ground
truth.

Tiers model the paper's observed quality ordering (Qwen2.5-72b best,
GPT-4o-mini worst / precision-poor) through five knobs:

* ``breadth`` — how many criteria perspectives the model can derive,
* ``flip`` — deterministic hash-seeded label noise rate,
* ``fp_bias`` — of the flipped labels, the share flipped clean→error
  (GPT-4o-mini's low precision in Table V comes from a high fp bias),
* ``sigma`` — how tight derived numeric ranges are (loose → misses,
  overtight → false alarms),
* ``aug_quality`` — probability an augmented error is a realistic
  multi-op corruption rather than a trivial one.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.llm.tokens import Usage


@dataclass(frozen=True)
class Tier:
    breadth: int
    flip: float
    fp_bias: float
    sigma: float
    aug_quality: float


TIERS: dict[str, Tier] = {
    "qwen2.5-72b": Tier(breadth=6, flip=0.02, fp_bias=0.35, sigma=4.0, aug_quality=0.95),
    "llama3.1-70b": Tier(breadth=5, flip=0.07, fp_bias=0.40, sigma=3.5, aug_quality=0.85),
    "llama3.1-8b": Tier(breadth=5, flip=0.11, fp_bias=0.40, sigma=3.0, aug_quality=0.75),
    "qwen2.5-7b": Tier(breadth=4, flip=0.18, fp_bias=0.50, sigma=2.5, aug_quality=0.60),
    "gpt-4o-mini": Tier(breadth=3, flip=0.30, fp_bias=0.80, sigma=2.0, aug_quality=0.50),
}


class SimulatedLLM:
    """Offline stand-in for the paper's LLM endpoint.

    ``complete(prompt, response, purpose)`` charges the prompt and the
    structured ``response`` (rendered to text only to count its completion
    tokens) and returns the response.
    """

    def __init__(self, model: str = "qwen2.5-72b", seed: int = 0):
        if model not in TIERS:
            raise KeyError(f"unknown model {model!r}; known: {sorted(TIERS)}")
        self.model = model
        self.tier = TIERS[model]
        self.seed = seed
        self.usage = Usage()

    # ------------------------------------------------------------- noise
    def _hash01(self, *key) -> float:
        h = hashlib.sha256(repr((self.seed, self.model, key)).encode()).digest()
        return int.from_bytes(h[:8], "big") / 2**64

    def noise_flip(self, *key) -> bool:
        """Deterministic Bernoulli(tier.flip) draw keyed on ``key``."""
        return self._hash01("flip", *key) < self.tier.flip

    def flip_direction_is_fp(self, *key) -> bool:
        """When flipping, does this model flip clean→error (a false positive)?"""
        return self._hash01("dir", *key) < self.tier.fp_bias

    def uniform(self, *key) -> float:
        return self._hash01("u", *key)

    def choice(self, options, *key):
        return options[int(self._hash01("c", *key) * len(options)) % len(options)]

    # -------------------------------------------------------------- call
    def complete(self, prompt: str, response, purpose: str):
        self.usage.charge(prompt, _render(response), purpose)
        return response


def _render(result) -> str:
    """Render a structured response as LLM-output text for tokens."""
    if result is None:
        return ""
    if isinstance(result, str):
        return result
    if isinstance(result, (list, tuple)):
        return "\n".join(_render(r) for r in result)
    if hasattr(result, "render"):
        return result.render()
    return repr(result)
