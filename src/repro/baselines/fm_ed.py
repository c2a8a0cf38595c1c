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
    mask = pd.DataFrame(False, index=ds.dirty.index, columns=ds.attrs)
    for i, row in enumerate(rows):
        def _judge(i=i, row=row) -> list[str]:
            answers = []
            for a in ds.attrs:
                raw = tuple_local_judgment(a, row[a])
                if llm._hash01("fm_flip", i, a) < flip:
                    if not raw and llm.flip_direction_is_fp("fm", i, a):
                        raw = True
                    elif raw and not llm.flip_direction_is_fp("fm", i, a):
                        raw = False
                mask.iat[i, mask.columns.get_loc(a)] = raw
                answers.append(f"{a}: {'yes' if raw else 'no'}")
            return answers

        llm.complete(fm_ed_prompt(row), _judge, "fm_ed")
    return mask, llm.usage
