"""Render EXPERIMENTS.md from the benchmark result JSONs.

Run after ``pytest benchmarks/ --benchmark-only``, from the repository
root with ``src/`` importable (``PYTHONPATH=src``):

    python jobs/render_experiments.py > EXPERIMENTS.md

Each table's heading and columns come from ``repro.exp.tables.TABLES``,
the registry ``jobs/run_table.py`` prints a single table from.
"""
from __future__ import annotations

import json
import pathlib

from repro.exp.tables import TABLES

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

HEADER = """\
# EXPERIMENTS — measured vs paper

All numbers below were produced by `pytest benchmarks/ --benchmark-only`
(raw rows in `benchmarks/results/*.json`; regenerate any table standalone
with `python jobs/run_table.py <table>`). "paper" columns are transcribed
from the ICDE 2025 paper.

**Scale.** Datasets are generated at 300 tuples (Table V: 250; token
study: Tax at 500/1000/2000) with Table II error *rates* preserved; the
paper used 1 000–7 390 (Tax: 200 000). The harness labels 10 % of data
(vs the paper's 5 %) to keep the *absolute* per-attribute sampling budget
comparable at the smaller scale — see DESIGN.md. Absolute F1 equality is
not expected (synthetic data + simulated LLM); the comparison targets are
*shape*: which method wins, rough factors, orderings, and trends.
"""


# Prose under a table, keyed like ``TABLES``; Table III's is computed.
NOTES = {
    "table2": """\
Per-type rates split the overall Err% proportionally to the paper's
per-type columns (which overlap in the original). Tax uses a 1% rate
(0.11% of a 300-row subset would round to zero errors).""",
    "tokens": """\
FM_ED grows linearly in dataset size (one full-tuple prompt per
tuple); ZeroED grows sublinearly (per-attribute prompts + a sampled
labeling budget) — the same shape as the paper's Fig. 8, whose ~90%
reduction is this trend at 200k tuples. One split differs: the
paper's ZeroED is output-token-heavy because real LLMs emit verbose
criteria/guideline text; our simulated completions are terse, so the
repro's ZeroED cost is input-dominated.""",
}


def _f(x, nd=3):
    return f"{x:.{nd}f}" if isinstance(x, float) else str(x)


def _md_table(rows: list[dict], cols: tuple[str, ...]) -> str:
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        out.append("| " + " | ".join(_f(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out)


def _note(name: str, rows: list[dict]) -> str:
    if name != "table3":
        return NOTES.get(name, "")
    by_m: dict[str, list[float]] = {}
    for r in rows:
        by_m.setdefault(r["method"], []).append(r["f1"])
    ranking = sorted(by_m, key=lambda m: -sum(by_m[m]) / len(by_m[m]))
    return f"Mean-F1 ranking (measured): {', '.join(ranking)}."


def main() -> None:
    print(HEADER)
    for name, table in TABLES.items():
        rows = json.loads((RESULTS / f"{name}.json").read_text())
        print(f"## {table.heading}\n")
        print(_md_table(rows, table.columns))
        note = _note(name, rows)
        print(f"\n{note}\n" if note else "")


if __name__ == "__main__":
    main()
