"""FM_ED baseline (Narayan et al., "Can foundation models wrangle your
data?") — zero-shot per-tuple LLM prompting.

Every tuple is serialized into an "Is there an error in this tuple?"
prompt and the LLM answers per attribute — so the model sees *only*
tuple-local context. The simulated LLM therefore applies
:func:`~repro.llm.reasoning.tuple_local_judgment` (missing values,
near-miss typos, garbage runs, digits-in-words, stray whitespace) with
elevated tier noise (no data context to ground its judgment), and cannot
see pattern violations, outliers, or rule violations (paper Table I). It
queries the simulated LLM's default model, Table III's qwen2.5-72b.
Token accounting charges one full-tuple prompt per tuple — the cost that
grows linearly with dataset size in Fig. 8.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.base import Dataset, records
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import fm_ed_prompt
from repro.llm.reasoning import tuple_local_judgment
from repro.llm.tokens import Usage


def detect(
    spark: SparkSession,
    ds: Dataset,
    *,
    seed: int = 0,
) -> tuple[pd.DataFrame, Usage]:
    llm = SimulatedLLM(seed=seed)
    flip = min(0.45, llm.tier.flip * 1.5)  # context-free judgments are noisier
    rows = records(ds.dirty)
    flags = np.zeros((len(rows), len(ds.attrs)), dtype=bool)
    for i, row in enumerate(rows):
        answers = []
        for j, a in enumerate(ds.attrs):
            raw = tuple_local_judgment(a, row[a])
            if llm._hash01("fm_flip", i, a) < flip:
                if not raw and llm.flip_direction_is_fp("fm", i, a):
                    raw = True
                elif raw and not llm.flip_direction_is_fp("fm", i, a):
                    raw = False
            flags[i, j] = raw
            answers.append(f"{a}: {'yes' if raw else 'no'}")
        llm.complete(fm_ed_prompt(row), answers, "fm_ed")
    return pd.DataFrame(flags, index=ds.dirty.index, columns=ds.attrs), llm.usage
