"""ZeroED end-to-end orchestration (paper §III, Fig. 2/3).

:class:`ZeroEDRunner` wires the four steps — feature representation,
clustering-based sampling + LLM labeling, training-data construction
(Algorithm 1, the ``training`` stage) and MLP detection (the ``detector``
stage) — over one dataset, as *cached stages*. Each stage declares once,
in :data:`STAGES`, the config fields and the upstream stages it reads; its
cache key is derived from them, so the Table IV ablations and Table V/VI
sweeps share the stages their configs don't change, and re-running a
config recomputes nothing. A cache entry also records the LLM token usage
of its stage and of every stage it read, and a run is charged the
``detector`` stage's record, each stage's usage once, so a run served from
the cache reports the token cost of a cold run.

Ablation flags map to Table IV rows: ``use_guidelines`` (w/o Guid.,
read by ``labels``), ``use_criteria`` (w/o Crit., read by ``features``),
``use_correlated`` (w/o Corr., read by ``related``) and
``use_verification`` (w/o Veri., read by ``training``). The settings the
paper fixes and no experiment varies are constants, each in the module
that reads it: :data:`N_RELATED` and :data:`N_PROMPT_SAMPLES` here, the
labeling batch size :data:`~repro.labeling.labeler.BATCH_SIZE`, Algorithm
1's budgets :data:`~repro.training.construct.MAX_SYNTH` and
:data:`~repro.training.construct.VERIFY_SAMPLE`, and the detector's
:data:`~repro.training.classifier.HIDDEN` width and
:data:`~repro.training.classifier.STEPS`. :class:`ZeroEDConfig` holds
every setting an experiment varies.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.metrics import prf
from repro.datasets.base import Dataset, records
from repro.features.assemble import build_context, collect_feature_matrices
# features_sdf is off the run path; perfbench/spans.py still traces the name.
from repro.features.assemble import features_sdf  # noqa: F401
from repro.features.correlation import top_related
from repro.features.stats import DatasetStats, collect_stats
from repro.labeling.guidelines import make_guidelines
from repro.labeling.labeler import label_representatives
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import criteria_prompt
from repro.llm.reasoning import derive_criteria
from repro.llm.tokens import Usage
from repro.sampling.cluster import cluster_attribute
from repro.training.classifier import train_predict_all
from repro.training.construct import construct_training_data


# Settings the paper fixes (§IV-A): k correlated attributes per attribute,
# and the tuples sampled into the criteria and guideline prompts.
N_RELATED = 2
N_PROMPT_SAMPLES = 20


@dataclass(frozen=True)
class ZeroEDConfig:
    """Default configuration mirrors the paper's (§IV-A implementation)."""

    model: str = "qwen2.5-72b"
    label_rate: float = 0.05  # clustering number = data_size * label_rate
    sampling: str = "kmeans"  # kmeans | agc | random
    use_guidelines: bool = True
    use_criteria: bool = True
    use_correlated: bool = True
    use_verification: bool = True
    seed: int = 0


# Each cached stage's declaration: the ZeroEDConfig fields it reads and the
# upstream stages it reads. A stage's cache key is derived from exactly
# these (ZeroEDRunner._key), and its builder, ZeroEDRunner._build_<stage>,
# sees nothing else.
STAGES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "stats": ((), ()),
    "related": (("use_correlated",), ("stats",)),
    "samples": (("seed",), ()),
    "criteria": (("model", "seed"), ("related", "samples")),
    "features": (("use_criteria",), ("stats", "related", "criteria")),
    "clusters": (("sampling", "label_rate", "seed"), ("features",)),
    "guidelines": (("model", "seed"), ("stats", "related", "samples")),
    "labels": (("model", "use_guidelines", "seed"), ("clusters", "related", "guidelines")),
    "training": (("model", "use_verification", "seed"), ("clusters", "labels", "related")),
    "detector": (("seed",), ("features", "training")),
}


@dataclass
class ZeroEDResult:
    mask: pd.DataFrame
    usage: Usage
    metrics: dict[str, float]
    diagnostics: dict = field(default_factory=dict)


class ZeroEDRunner:
    """Stage-cached ZeroED executor over a single dataset."""

    def __init__(self, spark: SparkSession, dataset: Dataset):
        self.spark = spark
        self.ds = dataset
        self._cache: dict = {}

    @property
    def stats(self) -> DatasetStats:
        """The dataset's statistics, shared by every config."""
        return self._stage("stats", ZeroEDConfig())

    # ------------------------------------------------------------ stages
    def _key(self, name: str, cfg: ZeroEDConfig) -> tuple:
        fields, upstream = STAGES[name]
        return (
            name,
            tuple(getattr(cfg, f) for f in fields),
            tuple(self._key(u, cfg) for u in upstream),
        )

    def _stage(self, name: str, cfg: ZeroEDConfig, charged: dict | None = None):
        """Stage ``name``'s output under ``cfg``, built once per key.

        Each cache entry records, by stage key, the LLM usage of the stage
        and of every stage it read; ``charged`` receives that record, so a
        run that hits the cache is charged what a cold run is.
        """
        key = self._key(name, cfg)
        if key not in self._cache:
            fields, upstream = STAGES[name]
            usages: dict = {}

            def read(up: str):
                if up not in upstream:
                    raise KeyError(f"stage {name!r} reads undeclared stage {up!r}")
                return self._stage(up, cfg, usages)

            c = SimpleNamespace(**{f: getattr(cfg, f) for f in fields})
            c.llm = SimulatedLLM(c.model, c.seed) if "model" in fields else None
            value = getattr(self, f"_build_{name}")(c, read)
            if c.llm is not None:
                usages[key] = c.llm.usage
            self._cache[key] = value, usages
        value, usages = self._cache[key]
        if charged is not None:
            charged.update(usages)
        return value

    def _build_stats(self, c, read):
        return collect_stats(self.spark, self.ds.dirty)

    def _build_related(self, c, read):
        return top_related(read("stats"), N_RELATED if c.use_correlated else 0)

    def _build_samples(self, c, read) -> list[dict]:
        g = np.random.default_rng(c.seed + 7)
        idx = g.choice(len(self.ds.dirty), min(N_PROMPT_SAMPLES, len(self.ds.dirty)), replace=False)
        return records(self.ds.dirty.iloc[sorted(idx)])

    def _build_criteria(self, c, read):
        related, samples = read("related"), read("samples")
        return {
            a: c.llm.complete(
                criteria_prompt(a, samples),
                derive_criteria(c.llm, a, samples, related[a]),
                "criteria",
            )
            for a in self.ds.attrs
        }

    def _build_features(self, c, read):
        criteria = read("criteria") if c.use_criteria else {a: [] for a in self.ds.attrs}
        ctx = build_context(read("stats"), read("related"), criteria)
        _, mats = collect_feature_matrices(self.ds.dirty, ctx)
        return {"ctx": ctx, "mats": mats}

    def _build_clusters(self, c, read):
        mats = read("features")["mats"]
        s = max(2, int(len(self.ds.dirty) * c.label_rate))
        return {a: cluster_attribute(c.sampling, mats[a], s, c.seed) for a in self.ds.attrs}

    def _build_guidelines(self, c, read):
        return make_guidelines(c.llm, read("stats"), read("related"), read("samples"))

    def _build_labels(self, c, read):
        clustering, related = read("clusters"), read("related")
        guidelines = read("guidelines") if c.use_guidelines else {a: None for a in self.ds.attrs}
        return {
            a: label_representatives(
                c.llm, self.ds.dirty, a, clustering[a].rep_positions, guidelines[a], related[a],
            )
            for a in self.ds.attrs
        }

    def _build_training(self, c, read):
        clustering, labels, related = read("clusters"), read("labels"), read("related")
        return {
            a: construct_training_data(
                c.llm, self.ds.dirty, a, clustering[a], labels[a], related[a],
                use_verification=c.use_verification,
            )
            for a in self.ds.attrs
        }

    def _build_detector(self, c, read):
        feats = read("features")
        # the pool goes by keyword: perfbench/spans.py counts it from kwargs["training"]
        return train_predict_all(
            feats["ctx"], training=read("training"), feat_mats=feats["mats"], seed=c.seed
        )

    # --------------------------------------------------------------- run
    def run(self, cfg: ZeroEDConfig) -> ZeroEDResult:
        """Run ``cfg``: the ``detector`` stage, charged the LLM usage of each stage it read once.

        The mask and the detector record are the cached stage's own objects,
        shared by every run of the same config; callers must not mutate them.
        """
        charged: dict = {}
        mask, detector = self._stage("detector", cfg, charged)
        feats, labels, training = (self._stage(s, cfg) for s in ("features", "labels", "training"))
        usage = Usage()
        for u in charged.values():
            usage.merge(u)
        metrics = prf(mask, self.ds.error_mask)
        diagnostics = {
            "n_criteria": {a: len(c) for a, c in feats["ctx"].criteria.items()},
            "n_labeled": {a: len(l) for a, l in labels.items()},
            "n_synth": {a: len(t.synth_rows) for a, t in training.items()},
            "n_evicted": {a: t.n_evicted for a, t in training.items()},
            "detector": detector,
        }
        return ZeroEDResult(mask=mask, usage=usage, metrics=metrics, diagnostics=diagnostics)


def ablation_configs(base: ZeroEDConfig) -> dict[str, ZeroEDConfig]:
    """The four Table IV ablations plus the full system."""
    return {
        "w/o. Guid.": replace(base, use_guidelines=False),
        "w/o. Crit.": replace(base, use_criteria=False),
        "w/o. Corr.": replace(base, use_correlated=False),
        "w/o. Veri.": replace(base, use_verification=False),
        "ZeroED": base,
    }
