"""ZeroED end-to-end orchestration (paper §III, Fig. 2/3).

:class:`ZeroEDRunner` wires the four steps — feature representation,
clustering-based sampling + LLM labeling, training-data construction, and
MLP detection — over one dataset, with *stage caching*. Each cached stage
declares once, in :data:`STAGES`, the config fields and the upstream stages
it reads; its cache key is derived from them, so the Table IV ablations and
Table V/VI sweeps share the stages their configs don't change. A cache
entry also records the LLM token usage of its stage and of every stage it
read, and a run is charged each stage's usage once, so a run served from
the cache reports the token cost of a cold run.

Ablation flags map to Table IV rows: ``use_guidelines`` (w/o Guid.),
``use_criteria`` (w/o Crit.), ``use_correlated`` (w/o Corr.),
``use_verification`` (w/o Veri.). The settings the paper fixes and no
experiment varies are constants: :data:`N_RELATED`,
:data:`N_PROMPT_SAMPLES`, and the labeling batch size and detector shape
defaults of :func:`~repro.labeling.labeler.label_representatives` and
:func:`~repro.training.classifier.train_predict_attribute`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.metrics import prf
from repro.datasets.base import Dataset
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
        self.sdf = dataset.dirty_spark(spark).cache()
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
        return collect_stats(self.sdf, self.ds.attrs)

    def _build_related(self, c, read):
        return top_related(read("stats"), N_RELATED if c.use_correlated else 0)

    def _build_samples(self, c, read) -> list[dict]:
        g = np.random.default_rng(c.seed + 7)
        idx = g.choice(len(self.ds.dirty), min(N_PROMPT_SAMPLES, len(self.ds.dirty)), replace=False)
        return self.ds.dirty.iloc[sorted(idx)].to_dict("records")

    def _build_criteria(self, c, read):
        related, samples = read("related"), read("samples")
        return {
            a: c.llm.complete(
                criteria_prompt(a, samples),
                lambda a=a: derive_criteria(c.llm, a, samples, related[a]),
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

    # --------------------------------------------------------------- run
    def run(self, cfg: ZeroEDConfig) -> ZeroEDResult:
        charged: dict = {}
        feats = self._stage("features", cfg, charged)
        clustering = self._stage("clusters", cfg, charged)
        labels = self._stage("labels", cfg, charged)
        related = self._stage("related", cfg, charged)

        llm = SimulatedLLM(cfg.model, cfg.seed)
        training = {
            a: construct_training_data(
                llm, self.ds.dirty, a, clustering[a], labels[a], related[a],
                use_verification=cfg.use_verification,
            )
            for a in self.ds.attrs
        }
        usage = Usage()
        for u in [*charged.values(), llm.usage]:
            usage.merge(u)

        # the pool goes by keyword: perfbench/spans.py counts it from kwargs["training"]
        mask, detector = train_predict_all(
            feats["ctx"], training=training, feat_mats=feats["mats"], seed=cfg.seed
        )
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
