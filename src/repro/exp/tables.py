"""Experiment harnesses — one function per paper table.

Each ``tableN_rows`` runs the corresponding experiment at repro scale and
returns a list of row dicts carrying both our measured numbers and the
paper's (from :mod:`repro.exp.paper_numbers`). Tables IV–VI are one sweep
(``_sweep``) over different variant configs. ``TABLES`` names each table's
heading, rows call and columns, for the job printout (``format_rows``) and
EXPERIMENTS.md.

Repro scale: datasets are generated at ``REPRO_N`` tuples (vs the paper's
1 000–7 390) with Table II error *rates* preserved; Table V runs at a
smaller size because it sweeps 5 LLM tiers × 6 datasets.
"""
from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.baselines import activeclean, dboost, fm_ed, katara, nadeef, raha
from repro.core.metrics import prf
from repro.core.zeroed import ZeroEDConfig, ZeroEDRunner, ablation_configs
from repro.datasets.registry import TABLE3_DATASETS, load_dataset
from repro.exp import paper_numbers as paper

REPRO_N = 300
TABLE5_N = 250
TOKEN_SIZES = (500, 1000, 2000)

# Scale substitution: the paper labels 5 % of 1 000–7 390 tuples, i.e.
# ~50–370 representatives per attribute. At repro scale (300 tuples) the
# same *relative* rate would leave only 15 clusters per attribute, too few
# for propagation purity — 10 % restores a comparable absolute sampling
# density and empirically reproduces the paper's operating point.
REPRO_LABEL_RATE = 0.10


def repro_config(seed: int = 0, **overrides) -> ZeroEDConfig:
    """The default ZeroED configuration at repro scale."""
    return ZeroEDConfig(seed=seed, label_rate=REPRO_LABEL_RATE, **overrides)


def get_spark(app: str) -> SparkSession:
    """A quiet SparkSession for the ``jobs/`` entry points."""
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _tune_spark(spark: SparkSession) -> None:
    """Small-data settings for the harnesses (restored values don't matter
    for correctness — only shuffle width)."""
    spark.conf.set("spark.sql.shuffle.partitions", "8")


def _measured_vs_paper(m: dict, pp: tuple | None) -> dict:
    """Measured P/R/F1 beside the paper's ``pp``; None where it has none."""
    pp = pp or (None, None, None)
    return {
        "prec": m["prec"], "rec": m["rec"], "f1": m["f1"],
        "paper_prec": pp[0], "paper_rec": pp[1], "paper_f1": pp[2],
    }


def format_rows(rows: list[dict], keys: Sequence[str]) -> str:
    header = " | ".join(f"{k:>12s}" for k in keys)
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            " | ".join(
                f"{r.get(k, ''):>12.3f}" if isinstance(r.get(k), float) else f"{str(r.get(k, '')):>12s}"
                for k in keys
            )
        )
    return "\n".join(lines)


# ------------------------------------------------------------------ Table II


def table2_rows(seed: int = 0) -> list[dict]:
    """Generated-dataset statistics vs the paper's Table II."""
    rows = []
    for name, (p_n, p_attrs, p_err) in paper.PAPER_TABLE2.items():
        ds = load_dataset(name, n=REPRO_N, seed=seed)
        by_type = ds.error_rate_by_type()
        rows.append(
            {
                "dataset": name,
                "tuples": ds.n_tuples, "attrs": len(ds.attrs),
                "err_pct": 100 * ds.error_rate,
                **{f"{t.lower()}_pct": 100 * v for t, v in by_type.items()},
                "paper_tuples": p_n, "paper_attrs": p_attrs, "paper_err_pct": p_err,
            }
        )
    return rows


# ----------------------------------------------------------------- Table III

BASELINES = ["dBoost", "Nadeef", "Katara", "ActiveClean", "Raha", "FM_ED"]


def _run_baseline(method: str, spark, ds, stats, seed: int):
    if method == "dBoost":
        return dboost.detect(spark, ds, stats)
    if method == "Nadeef":
        return nadeef.detect(spark, ds)
    if method == "Katara":
        return katara.detect(spark, ds)
    if method == "ActiveClean":
        return activeclean.detect(spark, ds, seed=seed)
    if method == "Raha":
        return raha.detect(spark, ds, stats, seed=seed)
    if method == "FM_ED":
        mask, _usage = fm_ed.detect(spark, ds, seed=seed)
        return mask
    raise ValueError(method)


def table3_rows(
    spark: SparkSession,
    datasets: list[str] = TABLE3_DATASETS,
    methods: list[str] | None = None,
    seed: int = 0,
) -> list[dict]:
    """P/R/F1 of every method on every dataset (paper Table III)."""
    _tune_spark(spark)
    methods = methods or BASELINES + ["ZeroED"]
    rows = []
    for name in datasets:
        ds = load_dataset(name, n=REPRO_N, seed=seed)
        runner = ZeroEDRunner(spark, ds)
        stats = runner.stats
        for method in methods:
            t0 = time.time()
            if method == "ZeroED":
                m = runner.run(repro_config(seed)).metrics
            else:
                m = prf(_run_baseline(method, spark, ds, stats, seed), ds.error_mask)
            pp = paper.PAPER_TABLE3.get(method, {}).get(name)
            rows.append(
                {
                    "dataset": name, "method": method,
                    **_measured_vs_paper(m, pp),
                    "seconds": time.time() - t0,
                }
            )
    return rows


# ------------------------------------------------------- Tables IV, V, VI


def _sweep(
    spark: SparkSession,
    datasets: Iterable[str],
    n: int,
    column: str,
    variants: dict[str, ZeroEDConfig],
    paper_table: dict,
    seed: int,
) -> list[dict]:
    """Run every variant config on one ``ZeroEDRunner`` per dataset.

    Each row names its variant under ``column`` and carries the variant's
    P/R/F1 beside the paper's ``paper_table[variant][dataset]``. The
    runner's stage cache computes the stages the variants share once per
    dataset.
    """
    _tune_spark(spark)
    rows = []
    for name in datasets:
        runner = ZeroEDRunner(spark, load_dataset(name, n=n, seed=seed))
        for label, cfg in variants.items():
            m = runner.run(cfg).metrics
            pp = paper_table[label].get(name)
            rows.append({"dataset": name, column: label, **_measured_vs_paper(m, pp)})
    return rows


def table4_rows(
    spark: SparkSession,
    datasets: list[str] = TABLE3_DATASETS,
    seed: int = 0,
) -> list[dict]:
    """Ablation study (paper Table IV)."""
    configs = ablation_configs(repro_config(seed))
    return _sweep(spark, datasets, REPRO_N, "ablation", configs, paper.PAPER_TABLE4, seed)


def table5_rows(
    spark: SparkSession,
    datasets: list[str] = TABLE3_DATASETS,
    models: list[str] | None = None,
    seed: int = 0,
) -> list[dict]:
    """ZeroED with different LLM tiers (paper Table V)."""
    configs = {m: repro_config(seed, model=m) for m in models or paper.PAPER_TABLE5}
    return _sweep(spark, datasets, TABLE5_N, "model", configs, paper.PAPER_TABLE5, seed)


def table6_rows(
    spark: SparkSession,
    datasets: tuple[str, ...] = ("flights", "billionaire", "movies"),
    methods: tuple[str, ...] = ("random", "agc", "kmeans"),
    seed: int = 0,
) -> list[dict]:
    """Sampling-method comparison (paper Table VI)."""
    configs = {m: repro_config(seed, sampling=m) for m in methods}
    return _sweep(spark, datasets, REPRO_N, "sampling", configs, paper.PAPER_TABLE6, seed)


# ------------------------------------------------------- token cost (Fig. 8)


def token_cost_rows(
    spark: SparkSession,
    sizes: tuple[int, ...] = TOKEN_SIZES,
    seed: int = 0,
) -> list[dict]:
    """ZeroED vs FM_ED token usage on growing Tax subsets (Fig. 8's claim:
    up to ~90 % token reduction at scale).

    Uses the paper's 5 % label rate: token cost is the quantity under
    study, and the paper's budget rule (clusters = size × rate) is what
    produces its sublinear growth.
    """
    _tune_spark(spark)
    rows = []
    for n in sizes:
        ds = load_dataset("tax", n=n, seed=seed)
        res = ZeroEDRunner(spark, ds).run(ZeroEDConfig(seed=seed, label_rate=0.05))
        _mask, fm_usage = fm_ed.detect(spark, ds, seed=seed)
        z, f = res.usage.total_tokens, fm_usage.total_tokens
        rows.append(
            {
                "n_tuples": n,
                "zeroed_tokens": z, "fm_ed_tokens": f,
                "zeroed_in": res.usage.prompt_tokens,
                "zeroed_out": res.usage.completion_tokens,
                "fm_ed_in": fm_usage.prompt_tokens,
                "fm_ed_out": fm_usage.completion_tokens,
                "reduction_pct": 100.0 * (1 - z / f) if f else 0.0,
            }
        )
    return rows


# ----------------------------------------------------------------- registry


@dataclass(frozen=True)
class Table:
    """One paper table: its heading, the call that measures its rows, and
    the row keys it reports, in order."""

    heading: str
    rows: Callable[..., list[dict]]
    columns: tuple[str, ...]


PRF_COLUMNS = ("prec", "rec", "f1", "paper_prec", "paper_rec", "paper_f1")

# Keyed by the name the benchmarks save each table's rows under
# (``benchmarks/results/<name>.json``). ``jobs/run_table.py`` prints a
# table from here; ``jobs/render_experiments.py`` renders EXPERIMENTS.md.
TABLES: dict[str, Table] = {
    "table2": Table(
        "Table II — dataset statistics",
        table2_rows,
        ("dataset", "tuples", "attrs", "err_pct", "mv_pct", "pv_pct", "t_pct",
         "o_pct", "rv_pct", "paper_tuples", "paper_attrs", "paper_err_pct"),
    ),
    "table3": Table(
        "Table III — method comparison (P / R / F1, measured | paper)",
        table3_rows,
        ("dataset", "method", *PRF_COLUMNS),
    ),
    "table4": Table("Table IV — ablations", table4_rows, ("dataset", "ablation", *PRF_COLUMNS)),
    "table5": Table("Table V — LLM tiers", table5_rows, ("dataset", "model", *PRF_COLUMNS)),
    "table6": Table(
        "Table VI — sampling methods", table6_rows, ("dataset", "sampling", *PRF_COLUMNS)
    ),
    "tokens": Table(
        "Token cost (Fig. 8's numbers) — ZeroED vs FM_ED on Tax subsets",
        token_cost_rows,
        ("n_tuples", "zeroed_tokens", "fm_ed_tokens", "reduction_pct",
         "zeroed_in", "zeroed_out", "fm_ed_in", "fm_ed_out"),
    ),
}
