"""Context-aware LLM labeling of representative samples (paper §III-C).

Representatives are labeled per attribute in batches of :data:`BATCH_SIZE`
(paper: 20) tuples. Each batch prompt carries the attribute's guideline
plus, for every value, the values of its correlated attributes — the
context that lets the (simulated) LLM judge rule violations. Without a
guideline (the w/o-Guid. ablation) the model falls back to the same
tuple-local judgment FM_ED has. Tier label noise is applied per cell with
the tier's false-positive bias.
"""
from __future__ import annotations

import pandas as pd

from repro.datasets.base import records
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import labeling_prompt
from repro.llm.reasoning import Guideline, guideline_judgment, tuple_local_judgment

# Tuples per labeling prompt (paper §IV-A).
BATCH_SIZE = 20


def _noisy(llm: SimulatedLLM, attr: str, row_idx: int, label: int) -> int:
    if llm.noise_flip(attr, row_idx):
        if label == 0 and llm.flip_direction_is_fp(attr, row_idx):
            return 1
        if label == 1 and not llm.flip_direction_is_fp(attr, row_idx):
            return 0
    return label


def label_representatives(
    llm: SimulatedLLM,
    dirty: pd.DataFrame,
    attr: str,
    rep_positions: list[int],
    guideline: Guideline | None,
    related: list[str],
) -> dict[int, int]:
    """Label the representative cells of ``attr``; returns {row_pos: 0/1}."""
    labels: dict[int, int] = {}
    cols = [attr, *related]
    gtext = guideline.text if guideline is not None else "(no guideline)"
    for start in range(0, len(rep_positions), BATCH_SIZE):
        batch = rep_positions[start: start + BATCH_SIZE]
        rows = records(dirty.iloc[batch][cols])
        batch_labels = []
        for i, r in zip(batch, rows):
            v = r[attr]
            if guideline is not None:
                raw = int(guideline_judgment(guideline, v, r))
            else:
                raw = int(tuple_local_judgment(attr, v))
            batch_labels.append(_noisy(llm, attr, i, raw))
        llm.complete(labeling_prompt(attr, gtext, rows), batch_labels, "labeling")
        labels.update(zip(batch, batch_labels))
    return labels
