"""ZeroED run benchmark.

One op is a ZeroED run, or a sweep of runs, through
``repro.core.zeroed.ZeroEDRunner`` on a dataset generated from ``--seed``.
The benchmark starts its own pinned local Spark session, warms up on a
dataset of the same size with another seed, times ops for ``--seconds``
seconds, checks every op's outputs, and prints one JSON object as its last
stdout line.

    python3 perfbench/run.py --workload tax-2000-cold --seed 0 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics of a traced op (see ``spans.py``) next to an untraced op,
whose difference is the tracing overhead. Run it from the repository root;
it reads the program from ``src/`` and writes scratch files only under
``.perfbench_tmp/``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# Pinned Spark settings. F1 and token counts depend on them (partitioning
# changes the order the stats and features arrive in), so every output
# records them and runs taken under other settings are not comparable.
MASTER = "local[1]"
DRIVER_MEMORY = "1g"
SPARK_CONF = {
    "spark.default.parallelism": "1",
    "spark.sql.shuffle.partitions": "1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.adaptive.enabled": "false",
    "spark.ui.retainedJobs": "100000",
}

WARMUP_SEED_OFFSET = 7919


@dataclass(frozen=True)
class Workload:
    dataset: str
    n: int
    attrs: tuple[str, ...]
    sweep: bool  # True: the five Table IV ablation configs on one runner
    repro_rate: bool  # True: Table III repro config; False: Fig. 8 config


# Each dataset keeps only a few attributes, so that one run with its set-up
# fits the benchmark's time budget. Each kept attribute carries injected
# errors at every seed, so its detector is always fit and the work per op
# does not swing with the seed: Tax's city and state carry almost none.
# Flights keeps the key of its FDs.
WORKLOADS = {
    "tax-2000-cold": Workload(
        "tax", 2000, ("zip", "rate"), sweep=False, repro_rate=False
    ),
    "flights-ablation-warm": Workload(
        "flights", 300, ("flight",), sweep=True, repro_rate=True
    ),
}

# Metric names and units, as BENCHMARK.json declares them.
_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = {k: [(m["name"], m["unit"]) for m in _spec[k]] for k in ("end_to_end", "per_layer")}

# LLM token purposes reported per layer, from the llm.tokens.<purpose> names.
PURPOSES = [n.removeprefix("llm.tokens.") for n, _ in SPEC["per_layer"] if n.startswith("llm.tokens.")]


# ---------------------------------------------------------------- set-up
def configure_environment() -> None:
    """Point Python workers at ``src/`` and keep every scratch file in TMP.

    ``PYSPARK_SUBMIT_ARGS`` is read when the JVM launches, so it is set
    before pyspark is imported.
    """
    for d in ("spark", "java", "py"):
        (TMP / d).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP / "py")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    java_opts = f"-Djava.io.tmpdir={TMP / 'java'} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM that assembles the launch command
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf {shlex.quote('spark.local.dir=' + str(TMP / 'spark'))}",
            f"--conf {shlex.quote('spark.driver.extraJavaOptions=' + java_opts)}",
            "pyspark-shell",
        ]
    )
    sys.path.insert(0, str(SRC))


def start_spark():
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def settings(spark) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": DRIVER_MEMORY,
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
    }


def make_dataset(wl: Workload, n: int, seed: int):
    """Generate the workload's dataset, restricted to its attributes."""
    from repro.datasets.registry import load_dataset

    ds = load_dataset(wl.dataset, n=n, seed=seed)
    cols = list(wl.attrs)
    return replace(
        ds,
        dirty=ds.dirty[cols],
        clean=ds.clean[cols],
        error_types=ds.error_types[cols],
        fds=[fd for fd in ds.fds if set(fd) <= set(cols)],
        patterns={a: p for a, p in ds.patterns.items() if a in cols},
        numeric_attrs=[a for a in ds.numeric_attrs if a in cols],
    )


def configs(wl: Workload, seed: int) -> list:
    from repro.core.zeroed import ZeroEDConfig, ablation_configs
    from repro.exp.tables import repro_config

    base = repro_config(seed) if wl.repro_rate else ZeroEDConfig(seed=seed, label_rate=0.05)
    return list(ablation_configs(base).values()) if wl.sweep else [base]


def run_op(spark, ds, cfgs) -> list:
    """One op: a fresh runner, then every config in order on it."""
    from repro.core.zeroed import ZeroEDRunner

    runner = ZeroEDRunner(spark, ds)
    return [runner.run(c) for c in cfgs]


# ---------------------------------------------------------------- checks
def check_results(ds, results, ref) -> list[str]:
    """Problems with one op's results; ``ref`` is the first op's results."""
    problems = []
    truth = ds.error_mask.to_numpy()
    for i, r in enumerate(results):
        m = r.mask
        if m.shape != ds.dirty.shape or list(m.columns) != ds.attrs:
            problems.append(f"config {i}: mask shape {m.shape} != {ds.dirty.shape}")
            continue
        if not all(str(t) == "bool" for t in m.dtypes):
            problems.append(f"config {i}: mask is not boolean")
            continue
        # F1 recomputed here, independently of repro.core.metrics.
        pred = m.to_numpy()
        tp, fp, fn = (pred & truth).sum(), (pred & ~truth).sum(), (~pred & truth).sum()
        recomputed = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if abs(recomputed - r.metrics["f1"]) > 1e-9:
            problems.append(f"config {i}: reported f1 {r.metrics['f1']} != recomputed {recomputed}")
    if ref is not None and not problems:
        for i, (r, q) in enumerate(zip(results, ref)):
            if r.metrics["f1"] != q.metrics["f1"]:
                problems.append(f"config {i}: f1 {r.metrics['f1']} != first op's {q.metrics['f1']}")
            if r.usage.total_tokens != q.usage.total_tokens:
                problems.append(f"config {i}: tokens {r.usage.total_tokens} != first op's {q.usage.total_tokens}")
            if not r.mask.equals(q.mask):
                problems.append(f"config {i}: mask differs from the first op's")
    return problems


def check_cold(results, cold) -> list[str]:
    """Each warm-runner result must equal a cold runner's for the same config."""
    problems = []
    for i, (r, c) in enumerate(zip(results, cold)):
        if not r.mask.equals(c.mask):
            problems.append(f"config {i}: warm mask differs from cold runner's")
        if r.metrics != c.metrics:
            problems.append(f"config {i}: warm metrics {r.metrics} != cold {c.metrics}")
        ru, cu = r.usage, c.usage
        if (ru.prompt_tokens, ru.completion_tokens, ru.calls, ru.by_purpose) != (
            cu.prompt_tokens, cu.completion_tokens, cu.calls, cu.by_purpose
        ):
            problems.append(
                f"config {i}: warm usage {ru.total_tokens} tokens/{ru.calls} calls"
                f" != cold {cu.total_tokens} tokens/{cu.calls} calls"
            )
    return problems


# --------------------------------------------------------------- metrics
def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def f1(results) -> float:
    return statistics.fmean(r.metrics["f1"] for r in results)


def e2e_metrics(ds, walls, results, fm_tokens, setup_s, rss_mb) -> dict:
    run_s = statistics.median(walls)
    zeroed_tokens = results[-1].usage.total_tokens  # the full system's run
    return {
        "run_s": run_s,
        "cells_per_s": ds.dirty.size * len(results) / run_s,
        "setup_s": setup_s,
        "tokens_total": sum(r.usage.total_tokens for r in results),
        "llm_calls": sum(r.usage.calls for r in results),
        "token_reduction_pct": 100.0 * (1.0 - zeroed_tokens / fm_tokens),
        "peak_rss_mb": rss_mb,
    }


def traced_metrics(tracer, traced_ops, traced_walls, walls, cold_calls) -> dict:
    from spans import layer_metrics

    per_op = []
    for op_id, results in traced_ops:
        spans = tracer.op_spans(op_id)
        m, op_wall = layer_metrics(spans)
        calls = len(spans) - 1
        m["core.zeroed.stage_reuse"] = 1.0 - calls / (cold_calls or calls)
        m["core.metrics.f1"] = f1(results)
        m["llm.calls"] = sum(r.usage.calls for r in results)
        for p in PURPOSES:
            m[f"llm.tokens.{p}"] = sum(sum(r.usage.by_purpose.get(p, {}).values()) for r in results)
        accounted = sum(v for k, v in m.items() if k.endswith(".s")) + m["core.zeroed.self_s"]
        print(f"{op_id}: traced wall {op_wall:.4f} s; layer self times + core.zeroed.self_s = {accounted:.4f} s")
        per_op.append(m)
    out = {k: statistics.median(m.get(k, 0.0) for m in per_op) for k, _unit in SPEC["per_layer"]}
    out["trace.run_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(walls)
    return out


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "core" / "zeroed.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2

    configure_environment()
    t0 = time.perf_counter()
    spark = start_spark()
    try:
        return measure(spark, WORKLOADS[args.workload], args, t0)
    finally:
        stop_spark(spark)


def measure(spark, wl: Workload, args, t0: float) -> int:
    from repro.baselines import fm_ed

    # Set-up: Spark start, dataset generation and one warm-up run of the full
    # config on a dataset of the same size with another seed. The first op
    # in a process pays class loading and JIT compilation; after a 40-row
    # warm-up the first timed op still ran about 40% slower than the next.
    ds = make_dataset(wl, wl.n, args.seed)
    cfgs = configs(wl, args.seed)
    warm_seed = args.seed + WARMUP_SEED_OFFSET
    run_op(spark, make_dataset(wl, wl.n, warm_seed), configs(wl, warm_seed)[-1:])
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(spark.sparkContext)

    # Ops run back to back (a closed loop with one client) and start until
    # --seconds have passed; a traced run pairs one untraced op with one
    # traced op.
    attempted = failed = 0
    walls: list[float] = []
    traced_walls: list[float] = []
    traced_ops: list[tuple[str, list]] = []
    ref = None
    min_ops = 2 if tracer is not None else 1
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        op_id = f"op{attempted}"
        try:
            results, wall = timed_op(spark, ds, cfgs, tracer if traced else None, op_id)
            problems = check_results(ds, results, ref)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        for p in problems:
            print(f"check failed ({op_id}): {p}", file=sys.stderr)
        if problems:
            failed += 1
            continue
        ref = ref or results
        (traced_walls if traced else walls).append(wall)
        if traced:
            traced_ops.append((op_id, results))
    rss_mb = peak_rss_mb()

    # Untimed: the FM_ED baseline's tokens, and for a sweep a cold runner
    # per config whose result the warm runner's must equal.
    fm_tokens = cold_calls = None
    if ref is not None:
        try:
            fm_tokens = fm_ed.detect(spark, ds, seed=args.seed)[1].total_tokens
            if wl.sweep:
                cold, cold_calls = cold_runs(spark, ds, cfgs, tracer)
                problems = check_cold(ref, cold)
                for p in problems:
                    print(f"check failed (cold runner): {p}", file=sys.stderr)
                failed += bool(problems)
        except Exception:
            traceback.print_exc()
            failed += 1

    info = {"workload": args.workload, "seed": args.seed, "settings": settings(spark)}
    print("settings " + json.dumps(info))
    print(f"ops attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f}")
    correct = failed == 0 and walls and (tracer is None or traced_walls)
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if tracer is None:
        metrics = e2e_metrics(ds, walls, ref, fm_tokens, setup_s, rss_mb)
        units = dict(SPEC["end_to_end"])
        hp = high_percentile(walls)
        print(
            f"run_s median={metrics['run_s']:.4f} s over n={len(walls)} ops; "
            + (f"p{hp[0]:.1f}={hp[1]:.4f} s" if hp else "no percentile has 10 samples beyond it")
        )
        print(f"f1 (not a bounded metric; see README) = {f1(ref):.4f}")
    else:
        metrics = traced_metrics(tracer, traced_ops, traced_walls, walls, cold_calls)
        units = dict(SPEC["per_layer"])
    for k, v in metrics.items():
        print(f"  {k:<36s} {v:>16.4f} {units[k]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def timed_op(spark, ds, cfgs, tracer, op_id: str) -> tuple[list, float]:
    """Run one op, traced when a tracer is given; return results and wall time."""
    with tracer or contextlib.nullcontext(), tracer.op(op_id) if tracer else contextlib.nullcontext():
        t = time.perf_counter()
        results = run_op(spark, ds, cfgs)
        return results, time.perf_counter() - t


def cold_runs(spark, ds, cfgs, tracer) -> tuple[list, int | None]:
    """A fresh runner per config; in a traced run, also the calls they make."""
    cold, calls = [], 0
    for i, c in enumerate(cfgs):
        cold += timed_op(spark, ds, [c], tracer, f"cold{i}")[0]
        if tracer is not None:
            calls += len(tracer.op_spans(f"cold{i}")) - 1
    return cold, (calls if tracer is not None else None)


if __name__ == "__main__":
    sys.exit(main())
