"""Print one paper table, measured beside the paper's numbers.

From the repository root, with ``src/`` importable (``PYTHONPATH=src``):

    python jobs/run_table.py <table> [dataset ...]
    python -m jobs.run_table <table> [dataset ...]

``<table>`` is a key of ``repro.exp.tables.TABLES``: table2 … table6 or
tokens. Datasets narrow Tables III–VI to those datasets; Table II and the
token study take none. Table II starts no Spark.
"""
import inspect
import sys

from repro.exp.tables import TABLES, format_rows, get_spark

USAGE = f"usage: run_table.py {{{','.join(TABLES)}}} [dataset ...]"


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in TABLES:
        print(USAGE, file=sys.stderr)
        return 2
    name, datasets = argv[0], argv[1:]
    table = TABLES[name]
    params = inspect.signature(table.rows).parameters
    if datasets and "datasets" not in params:
        print(f"{name} takes no datasets\n{USAGE}", file=sys.stderr)
        return 2
    kwargs = {"datasets": datasets} if datasets else {}
    if "spark" in params:
        spark = get_spark(name)
        try:
            rows = table.rows(spark, **kwargs)
        finally:
            spark.stop()
    else:
        rows = table.rows(**kwargs)
    print(table.heading)
    print(format_rows(rows, table.columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
