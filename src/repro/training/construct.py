"""Training-data construction — Algorithm 1 of the paper.

Per attribute:

1. *Label propagation*: every row inherits the LLM label of its cluster's
   representative (clusters were sized to the labeling budget, so each has
   exactly one labeled centroid sample).
2. *Contrastive criteria refinement* (lines 4–7): the LLM contrasts
   error-labeled against clean-labeled values and emits refined criteria.
3. *Mutual verification* (lines 8–20): criteria scoring < 0.5 accuracy on
   propagated-clean data are dropped; clean-labeled rows failing > 50 % of
   the surviving criteria are evicted from the training pool. Both checks
   read one evaluation of the refined criteria over the propagated-clean
   rows (:func:`~repro.features.criteria.evaluate_table`, once per
   distinct key of the columns each criterion reads).
4. *LLM error augmentation* (lines 24–25): synthetic erroneous variants of
   verified clean rows rebalance the minority error class.

The w/o-Veri. ablation (Table IV) skips steps 2–4.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.features.criteria import Criterion, evaluate_table
from repro.llm.model import SimulatedLLM
from repro.llm.reasoning import augment_errors, refine_criteria
from repro.sampling.cluster import AttrClustering


@dataclass
class AttrTrainingData:
    """Training pool for one attribute's detector."""

    real_positions: list[int] = field(default_factory=list)
    real_labels: list[int] = field(default_factory=list)
    synth_rows: list[dict] = field(default_factory=list)  # all labeled 1
    refined_criteria: list[Criterion] = field(default_factory=list)
    n_evicted: int = 0

    @property
    def n_errors(self) -> int:
        return sum(self.real_labels) + len(self.synth_rows)

    @property
    def n_clean(self) -> int:
        return len(self.real_labels) - sum(self.real_labels)


def propagate_labels(
    clustering: AttrClustering, rep_labels: dict[int, int]
) -> dict[int, int]:
    """Row position -> propagated label (cluster representative's label)."""
    out: dict[int, int] = {}
    for pos, c in enumerate(clustering.assignments):
        rep = clustering.representatives.get(int(c))
        if rep is not None and rep in rep_labels:
            out[pos] = rep_labels[rep]
    return out


def construct_training_data(
    llm: SimulatedLLM,
    dirty: pd.DataFrame,
    attr: str,
    clustering: AttrClustering,
    rep_labels: dict[int, int],
    related: list[str],
    *,
    use_verification: bool = True,
    max_synth: int = 300,
    verify_sample: int = 400,
) -> AttrTrainingData:
    """Run Algorithm 1 for one attribute."""
    propagated = propagate_labels(clustering, rep_labels)
    td = AttrTrainingData()

    refined: list[Criterion] = []
    if use_verification:
        values = dirty[attr].tolist()
        err_vals = [values[p] for p, l in rep_labels.items() if l == 1]
        cln_vals = [values[p] for p, l in rep_labels.items() if l == 0]
        clean_positions = [p for p, l in propagated.items() if l == 0]
        # subsample for the LLM context and criterion verification cost
        step = max(1, len(clean_positions) // verify_sample)
        clean_rows = dirty.iloc[clean_positions[::step]].to_dict("records")
        refined = refine_criteria(llm, attr, err_vals, cln_vals, clean_rows, related)
        passes, applicable = evaluate_table(refined, dirty.iloc[clean_positions])
        passes &= applicable
        # verify criteria against propagated-clean data (Alg. 1 lines 8–14);
        # pass rates count only cells the criterion is applicable to
        n_applicable = applicable[::step].sum(axis=0).tolist()
        n_passed = passes[::step].sum(axis=0).tolist()
        kept = [j for j, (n_a, n_p) in enumerate(zip(n_applicable, n_passed)) if n_a and n_p / n_a >= 0.5]
        refined = [refined[j] for j in kept]
        # verify propagated-clean rows against surviving criteria (15–20):
        # evict a "clean" row when at least half of the criteria that can
        # judge it indicate incorrectness
        if refined:
            decisive = applicable[:, kept].sum(axis=1)
            rate = passes[:, kept].sum(axis=1) / np.maximum(decisive, 1)
            evicted = {clean_positions[i] for i in np.flatnonzero((decisive > 0) & (rate <= 0.5))}
            td.n_evicted = len(evicted)
            propagated = {p: l for p, l in propagated.items() if p not in evicted}

    td.refined_criteria = refined
    td.real_positions = sorted(propagated)
    td.real_labels = [propagated[p] for p in td.real_positions]

    if use_verification:
        n_err = sum(td.real_labels)
        n_clean = len(td.real_labels) - n_err
        need = min(max(0, n_clean - n_err), max_synth)
        # Full rows: synthetic variants must featurize with the same context
        # slots (related-of-related vicinity, dependency criteria) as real rows,
        # otherwise the detector can shortcut on "missing context" artifacts.
        clean = dirty.iloc[[p for p, l in propagated.items() if l == 0]]
        td.synth_rows = augment_errors(llm, attr, clean, need)
    return td
