"""ZeroED end-to-end orchestration (paper §III, Fig. 2/3).

:class:`ZeroEDRunner` wires the four steps — feature representation,
clustering-based sampling + LLM labeling, training-data construction, and
MLP detection — over one dataset, with *stage caching*: every stage's
output (and the LLM token usage it incurred) is memoized under a key of
exactly the config fields it depends on, so the Table IV ablations and
Table V/VI sweeps share the stages their configs don't change. Cached LLM
usage is re-merged into each run's total, so reported token costs match a
cold run.

Ablation flags map to Table IV rows: ``use_guidelines`` (w/o Guid.),
``use_criteria`` (w/o Crit.), ``use_correlated`` (w/o Corr.),
``use_verification`` (w/o Veri.).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.metrics import prf
from repro.datasets.base import Dataset
from repro.features.assemble import (
    build_context,
    collect_feature_matrices,
    features_sdf,
)
from repro.features.correlation import top_related
from repro.features.stats import collect_stats
from repro.labeling.guidelines import make_guidelines
from repro.labeling.labeler import label_representatives
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import criteria_prompt
from repro.llm.reasoning import derive_criteria
from repro.llm.tokens import Usage
from repro.sampling.cluster import cluster_attribute
from repro.training.classifier import train_predict_all
from repro.training.construct import construct_training_data


@dataclass(frozen=True)
class ZeroEDConfig:
    """Default configuration mirrors the paper's (§IV-A implementation)."""

    model: str = "qwen2.5-72b"
    label_rate: float = 0.05  # clustering number = data_size * label_rate
    n_related: int = 2
    sampling: str = "kmeans"  # kmeans | agc | random
    use_guidelines: bool = True
    use_criteria: bool = True
    use_correlated: bool = True
    use_verification: bool = True
    batch_size: int = 20
    n_prompt_samples: int = 20
    mlp_hidden: int = 16
    mlp_max_iter: int = 60
    seed: int = 0


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

    # ------------------------------------------------------------ stages
    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _stats(self):
        return self._memo(("stats",), lambda: collect_stats(self.sdf, self.ds.attrs))

    def _related(self, k: int):
        return self._memo(("related", k), lambda: top_related(self._stats(), k))

    def _samples(self, cfg: ZeroEDConfig) -> list[dict]:
        def build():
            g = np.random.default_rng(cfg.seed + 7)
            idx = g.choice(len(self.ds.dirty), min(cfg.n_prompt_samples, len(self.ds.dirty)), replace=False)
            return self.ds.dirty.iloc[sorted(idx)].to_dict("records")

        return self._memo(("samples", cfg.seed, cfg.n_prompt_samples), build)

    def _criteria(self, cfg: ZeroEDConfig, k_eff: int):
        key = ("criteria", cfg.model, cfg.n_prompt_samples, k_eff, cfg.seed)

        def build():
            llm = SimulatedLLM(cfg.model, cfg.seed)
            related = self._related(k_eff)
            samples = self._samples(cfg)
            crit = {}
            for a in self.ds.attrs:
                crit[a] = llm.complete(
                    criteria_prompt(a, samples),
                    lambda a=a: derive_criteria(llm, a, samples, related[a]),
                    "criteria",
                )
            return crit, llm.usage

        return self._memo(key, build)

    @staticmethod
    def _criteria_key(cfg: ZeroEDConfig) -> tuple:
        """The config fields the criteria features depend on (none without them)."""
        return (cfg.model, cfg.n_prompt_samples) if cfg.use_criteria else ()

    def _features(self, cfg: ZeroEDConfig, k_eff: int):
        key = ("features", self._criteria_key(cfg), k_eff, cfg.seed)

        def build():
            usage = Usage()
            if cfg.use_criteria:
                criteria, crit_usage = self._criteria(cfg, k_eff)
                usage.merge(crit_usage)
            else:
                criteria = {a: [] for a in self.ds.attrs}
            ctx = build_context(self._stats(), self._related(k_eff), criteria)
            # one toPandas action reads the featurized table, so it is not cached
            row_ids, mats = collect_feature_matrices(features_sdf(self.sdf, ctx), self.ds.attrs)
            return {"ctx": ctx, "row_ids": row_ids, "mats": mats, "usage": usage}

        return self._memo(key, build)

    def _clustering(self, cfg: ZeroEDConfig, k_eff: int):
        feats = self._features(cfg, k_eff)
        key = ("clusters", self._criteria_key(cfg), k_eff, cfg.sampling, cfg.label_rate, cfg.seed)

        def build():
            n = len(self.ds.dirty)
            s = max(2, int(n * cfg.label_rate))
            return {
                a: cluster_attribute(cfg.sampling, feats["mats"][a], s, cfg.seed)
                for a in self.ds.attrs
            }

        return self._memo(key, build)

    def _guidelines(self, cfg: ZeroEDConfig, k_eff: int):
        key = ("guidelines", cfg.model, cfg.n_prompt_samples, k_eff, cfg.seed)

        def build():
            llm = SimulatedLLM(cfg.model, cfg.seed)
            g = make_guidelines(llm, self._stats(), self._related(k_eff), self._samples(cfg))
            return g, llm.usage

        return self._memo(key, build)

    def _labels(self, cfg: ZeroEDConfig, k_eff: int):
        key = ("labels", cfg.model, self._criteria_key(cfg), k_eff, cfg.sampling,
               cfg.label_rate, cfg.use_guidelines, cfg.n_prompt_samples, cfg.batch_size, cfg.seed)

        def build():
            usage = Usage()
            clustering = self._clustering(cfg, k_eff)
            related = self._related(k_eff)
            if cfg.use_guidelines:
                guidelines, g_usage = self._guidelines(cfg, k_eff)
                usage.merge(g_usage)
            else:
                guidelines = {a: None for a in self.ds.attrs}
            llm = SimulatedLLM(cfg.model, cfg.seed)
            labels = {
                a: label_representatives(
                    llm, self.ds.dirty, a, clustering[a].rep_positions,
                    guidelines[a], related[a], cfg.batch_size,
                )
                for a in self.ds.attrs
            }
            usage.merge(llm.usage)
            return labels, usage

        return self._memo(key, build)

    # --------------------------------------------------------------- run
    def run(self, cfg: ZeroEDConfig) -> ZeroEDResult:
        k_eff = cfg.n_related if cfg.use_correlated else 0
        usage = Usage()
        feats = self._features(cfg, k_eff)
        usage.merge(feats["usage"])
        clustering = self._clustering(cfg, k_eff)
        labels, label_usage = self._labels(cfg, k_eff)
        usage.merge(label_usage)

        related = self._related(k_eff)
        llm = SimulatedLLM(cfg.model, cfg.seed)
        training = {
            a: construct_training_data(
                llm, self.ds.dirty, a, clustering[a], labels[a], related[a],
                use_verification=cfg.use_verification,
            )
            for a in self.ds.attrs
        }
        usage.merge(llm.usage)

        # the pool goes by keyword: perfbench/spans.py counts it from kwargs["training"]
        mask, detector = train_predict_all(
            feats["ctx"], training=training, feat_mats=feats["mats"],
            hidden=cfg.mlp_hidden, max_iter=cfg.mlp_max_iter, seed=cfg.seed,
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
