"""The benchmark tracer's contract with the ZeroED runner.

``perfbench/spans.py`` wraps, by name, functions that
:mod:`repro.core.zeroed` resolves from its module globals on each call. A
name the runner no longer looks up there would silently drop its layer
from a traced benchmark run, and a traced run must fill the counters the
benchmark reports.
"""
import importlib.util
import sys
from pathlib import Path

import repro.core.zeroed as zeroed

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_are_zeroed_module_functions(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.TRACED
    for name in spans.TRACED:
        assert callable(getattr(zeroed, name, None)), f"repro.core.zeroed has no function {name!r}"


def test_traced_run_reports_the_counters_the_benchmark_reads(spark, hospital_tiny, monkeypatch):
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer(spark.sparkContext)
    # The benchmark pins adaptive execution off, and this run does the same.
    previous = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    try:
        with tracer, tracer.op("op1"):
            zeroed.ZeroEDRunner(spark, hospital_tiny).run(zeroed.ZeroEDConfig(label_rate=0.1))
    finally:
        spark.conf.set("spark.sql.adaptive.enabled", previous)
    m, _wall = spans.layer_metrics(tracer.op_spans("op1"))
    assert m["training.construct.calls"] == len(hospital_tiny.attrs)
    assert m["training.classifier.train_rows"] > 0
    assert m["features.assemble.dim"] > 0
    assert m["spark.jobs"] == 1
