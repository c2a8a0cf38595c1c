"""Token accounting for the simulated LLM.

The paper reports token consumption (Fig. 8 / the 90 % reduction claim in
the abstract) as the central efficiency metric, so every simulated LLM call
renders a *real* prompt string and a *real* response string and charges both
here. We use the standard ~4-characters-per-token heuristic, which is what
matters for the *relative* comparison between ZeroED (few, dense prompts)
and FM_ED (one prompt per tuple over the whole dataset).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


def count_tokens(text: str) -> int:
    """Approximate token count of ``text`` (ceil(len/4), min 1 for non-empty)."""
    if not text:
        return 0
    return max(1, math.ceil(len(text) / 4))


@dataclass
class Usage:
    """Accumulated token usage, split by prompt/completion and by purpose."""

    prompt_tokens: int = 0
    completion_tokens: int = 0
    calls: int = 0
    by_purpose: dict = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def charge(self, prompt: str, completion: str, purpose: str) -> None:
        """Record one LLM call's prompt and completion text."""
        p, c = count_tokens(prompt), count_tokens(completion)
        self.prompt_tokens += p
        self.completion_tokens += c
        self.calls += 1
        bucket = self.by_purpose.setdefault(purpose, {"prompt": 0, "completion": 0})
        bucket["prompt"] += p
        bucket["completion"] += c

    def merge(self, other: "Usage") -> None:
        """Fold another Usage into this one (e.g. one stage's usage record
        into a run's)."""
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.calls += other.calls
        for k, v in other.by_purpose.items():
            bucket = self.by_purpose.setdefault(k, {"prompt": 0, "completion": 0})
            bucket["prompt"] += v["prompt"]
            bucket["completion"] += v["completion"]
