"""Span tracer for the ZeroED benchmark's traced run.

The tracer replaces, for the duration of a traced op, the public functions
that :mod:`repro.core.zeroed` looks up at call time (``collect_stats``,
``train_predict_all``, ...) with wrappers. Each wrapper records a span
(name, layer, start, end, parent span, op id), runs the call under its own
Spark job group, and counts that group's Spark jobs when the call returns:
the status tracker keeps only the last ``spark.ui.retainedJobs`` jobs, so a
count taken at the end of the run would lose the early layers' jobs.

Spans are kept in memory; :func:`layer_metrics` folds one op's spans into
``<module>.<metric>`` numbers. A layer is the wrapped function's module
without the ``repro.`` prefix (``training.classifier``, ``sampling.cluster``).
"""
from __future__ import annotations

import contextlib
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import repro.core.zeroed as zeroed

# The names repro.core.zeroed resolves from its module globals on each call.
TRACED = (
    "collect_stats",
    "top_related",
    "derive_criteria",
    "build_context",
    "features_sdf",
    "collect_feature_matrices",
    "cluster_attribute",
    "make_guidelines",
    "label_representatives",
    "construct_training_data",
    "train_predict_all",
    "prf",
)
ROOT_LAYER = "core.zeroed"


def _train_counts(args, kwargs, result) -> dict:
    """Rows fed to the detector, and attributes fit vs. degenerate to a constant.

    Mirrors the classifier's own rule: an attribute is fit only when its
    pool (real + synthetic rows) holds both labels.
    """
    training = args[2] if len(args) > 2 else kwargs["training"]
    rows = fitted = 0
    for td in training.values():
        rows += len(td.real_positions) + len(td.synth_rows)
        fitted += len(set(td.real_labels) | ({1} if td.synth_rows else set())) == 2
    return {"train_rows": rows, "fitted_attrs": fitted, "const_attrs": len(training) - fitted}


def _matrix_counts(args, kwargs, result) -> dict:
    _row_ids, mats = result
    return {
        "matrix_mb": sum(m.nbytes for m in mats.values()) / 2**20,
        "dim": sum(m.shape[1] for m in mats.values()),
    }


# Per-function counters: (args, kwargs, result) -> {metric: count}.
COUNTERS = {
    "collect_stats": lambda a, k, r: {"pair_keys": sum(len(d) for d in r.joint.values())},
    "collect_feature_matrices": _matrix_counts,
    "cluster_attribute": lambda a, k, r: {"clusters": len(r.representatives)},
    "label_representatives": lambda a, k, r: {"labeled": len(r)},
    "construct_training_data": lambda a, k, r: {
        "pool_rows": len(r.real_positions),
        "synth": len(r.synth_rows),
        "evicted": r.n_evicted,
    },
    "train_predict_all": _train_counts,
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    spark_jobs: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the traced functions in ``repro.core.zeroed`` while installed."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._originals: dict = {}

    # ------------------------------------------------------------ install
    def __enter__(self) -> "Tracer":
        for name in TRACED:
            fn = getattr(zeroed, name)
            self._originals[name] = fn
            setattr(zeroed, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._originals.items():
            setattr(zeroed, name, fn)
        self._originals.clear()

    # -------------------------------------------------------------- spans
    def _group(self, span: Span) -> str:
        return f"perfbench-{span.op}-{span.id}"

    def _open(self, name: str, layer: str, op: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(next(self._ids), name, layer, op, parent.id if parent else None, 0.0)
        self.sc.setJobGroup(self._group(span), name, False)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.spark_jobs = len(self.sc.statusTracker().getJobIdsForGroup(self._group(span)))
        self._stack.pop()
        if self._stack:
            self.sc.setJobGroup(self._group(self._stack[-1]), self._stack[-1].name, False)
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        layer = fn.__module__.removeprefix("repro.")
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name, layer, self._stack[0].op)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Root span of one op; traced calls inside it are its children."""
        span = self._open("op", ROOT_LAYER, op_id)
        try:
            yield span
        finally:
            self._close(span)

    def op_spans(self, op_id: str) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children's spans cover."""
    covered, cur_start, cur_end = 0.0, None, None
    for c in sorted(children, key=lambda c: c.start):
        s, e = max(c.start, span.start), min(c.end, span.end)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.seconds - covered


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Fold one op's spans into per-layer metrics; also return the op's wall time.

    For every layer: ``<layer>.s`` (self seconds), ``.spark_jobs`` and
    ``.calls``, plus the counters the layer records. The root layer's self
    time is ``core.zeroed.self_s``; ``spark.jobs`` totals all spans.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    root = next(s for s in spans if s.parent is None)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        selfs = self_seconds(s, children[s.id])
        if s is root:
            out[f"{ROOT_LAYER}.self_s"] += selfs
        else:
            out[f"{s.layer}.s"] += selfs
            out[f"{s.layer}.calls"] += 1
            out[f"{s.layer}.spark_jobs"] += s.spark_jobs
        for k, v in s.counts.items():
            out[f"{s.layer}.{k}"] += v
        out["spark.jobs"] += s.spark_jobs
    return dict(out), root.seconds
