"""Fingerprint ZeroED's and the baselines' outputs, for a before/after
equality check.

Prints one JSON record per (dataset, ZeroED config):

* a hash of the detection mask;
* the metrics;
* the token usage, ``by_purpose`` included;
* the per-attribute diagnostics (``n_criteria``, ``n_labeled``, ``n_synth``,
  ``n_evicted``);
* each attribute's final detector loss, kept apart from the diagnostics
  because a change in the order the detector sums its loss moves it in
  the last digits without changing anything else;
* a hash of every attribute's cluster assignments and representatives;
* a hash of every attribute's representative labels (the ``labels``
  stage);
* when the config uses guidelines, a hash of every attribute's guideline
  text.

The records cover the 7 datasets at ``REPRO_N`` tuples under the five
Table IV configs plus AGC sampling, and Tax at n=2000 under the Fig. 8
config (``label_rate=0.05``). Then one record per (Table III dataset,
Table III baseline) at ``REPRO_N`` tuples holds a hash of the baseline's
mask and its metrics, and FM_ED's also its token usage; the baselines run
through ``BASELINES``, the same detectors Table III uses, on the ZeroED
runner. Data and configs use seed 3. Run it on two commits and compare the
outputs:

    PYTHONPATH=src python -m jobs.fingerprint > before.jsonl
    PYTHONPATH=src python -m jobs.fingerprint --compare before.jsonl after.jsonl

``--compare`` requires every field except the detector losses to be equal,
and the losses to agree within 1e-9 relative; a record without detector
losses (a baseline's) compares as one with none. It prints each difference
and exits non-zero if there is any.
"""
import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from repro.baselines import fm_ed
from repro.core.metrics import prf
from repro.core.zeroed import ZeroEDConfig, ZeroEDRunner, ablation_configs
from repro.datasets.registry import TABLE3_DATASETS, load_dataset
from repro.exp.tables import BASELINES, REPRO_N, get_spark, repro_config

SEED = 3
FIG8_N = 2000
LOSS_RTOL = 1e-9


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()[:16]


def _mask_digest(mask) -> str:
    return _digest([*mask.columns, mask.to_numpy(dtype=bool)])


def fingerprint(runner: ZeroEDRunner, name: str, cfg: ZeroEDConfig) -> dict:
    res = runner.run(cfg)
    # the cached stages the run read
    clusters = runner._stage("clusters", cfg)
    labels = runner._stage("labels", cfg)
    diagnostics = dict(res.diagnostics)
    detector = diagnostics.pop("detector")
    record = {
        "dataset": runner.ds.name,
        "n": len(runner.ds.dirty),
        "config": name,
        "mask": _mask_digest(res.mask),
        "metrics": res.metrics,
        "usage": asdict(res.usage),
        "diagnostics": diagnostics,
        "detector_loss": {a: d["loss"] for a, d in detector.items()},
        "clusters": _digest(
            part
            for a, c in clusters.items()
            for part in (
                a,
                c.assignments.astype(np.int64),
                np.array(sorted(c.representatives.items()), dtype=np.int64),
            )
        ),
        "labels": _digest(
            part
            for a, l in labels.items()
            for part in (a, np.array(sorted(l.items()), dtype=np.int64).reshape(-1, 2))
        ),
    }
    if cfg.use_guidelines:
        guidelines = runner._stage("guidelines", cfg)
        record["guidelines"] = _digest(
            part for a, g in guidelines.items() for part in (a, g.render())
        )
    return record


def baseline_fingerprint(runner: ZeroEDRunner, method: str) -> dict:
    """One Table III baseline's record, run as ``table3_rows`` runs it."""
    ds = runner.ds
    if method == "FM_ED":  # its usage, which the detector drops
        mask, usage = fm_ed.detect(runner.spark, ds, seed=SEED)
    else:
        mask, usage = BASELINES[method](runner, SEED), None
    record = {
        "dataset": ds.name,
        "n": len(ds.dirty),
        "config": method,
        "mask": _mask_digest(mask),
        "metrics": prf(mask, ds.error_mask),
    }
    if usage is not None:
        record["usage"] = asdict(usage)
    return record


def runs():
    """(dataset, n, {config name: config}, baselines) for every fingerprinted
    dataset."""
    base = repro_config(SEED)
    configs = {**ablation_configs(base), "AGC": replace(base, sampling="agc")}
    for name in TABLE3_DATASETS:
        yield name, REPRO_N, configs, BASELINES
    yield "tax", REPRO_N, configs, []
    yield "tax", FIG8_N, {"Fig. 8": ZeroEDConfig(seed=SEED, label_rate=0.05)}, []


def compare(before_path: str, after_path: str) -> int:
    """Print each difference between two fingerprint files; return their count."""

    def load(path: str) -> dict:
        with open(path) as f:
            return {(r["dataset"], r["n"], r["config"]): r for r in map(json.loads, f)}

    before, after = load(before_path), load(after_path)
    diffs, worst = 0, 0.0
    for key in sorted(before.keys() | after.keys(), key=str):
        if key not in before or key not in after:
            print(f"{key}: only in {'after' if key in after else 'before'}")
            diffs += 1
            continue
        b, a = before[key], after[key]
        for field in sorted(b.keys() | a.keys()):
            if field != "detector_loss" and b.get(field) != a.get(field):
                print(f"{key} {field}: {b.get(field)} -> {a.get(field)}")
                diffs += 1
        lb, la = b.get("detector_loss", {}), a.get("detector_loss", {})
        for attr in sorted(lb.keys() | la.keys()):
            x, y = lb.get(attr), la.get(attr)
            if x is None or y is None:
                if x != y:
                    print(f"{key} detector_loss[{attr}]: {x} -> {y}")
                    diffs += 1
                continue
            rel = abs(x - y) / max(abs(x), np.finfo(float).tiny)
            worst = max(worst, rel)
            if rel > LOSS_RTOL:
                print(f"{key} detector_loss[{attr}]: {x} -> {y} (rel {rel:.3g})")
                diffs += 1
    print(
        f"{len(before)} vs {len(after)} records, {diffs} differences, "
        f"max detector-loss relative difference {worst:.3g}"
    )
    return diffs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)
    spark = get_spark("fingerprint")
    for name, n, configs, baselines in runs():
        runner = ZeroEDRunner(spark, load_dataset(name, n=n, seed=SEED))
        for cfg_name, cfg in configs.items():
            print(json.dumps(fingerprint(runner, cfg_name, cfg)), flush=True)
        for method in baselines:
            print(json.dumps(baseline_fingerprint(runner, method)), flush=True)
    spark.stop()


if __name__ == "__main__":
    main()
