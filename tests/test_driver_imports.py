"""The ZeroED run path builds no pyspark ``Column`` objects on the driver.

In pyspark 4, creating a ``Column`` in the driver (``F.col(a)``, ``sdf[a]``,
any ``pyspark.sql.functions`` call) captures its call site, and that capture
imports IPython: about 530 modules and 24 MB more driver RSS, a 19% rise in
a Flights run's peak RSS. The run path therefore states its Spark work as
SQL strings (``selectExpr``, ``groupBy("a1", ...)``). This test keeps the
modules on that path from importing ``pyspark.sql.functions`` or ``Column``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RUN_PATH = ["core", "features", "sampling", "labeling", "training"]
MODULES = sorted(p for pkg in RUN_PATH for p in (SRC / pkg).glob("*.py"))


def column_imports(source: str) -> list[str]:
    """Imports of ``pyspark.sql.functions``, ``pyspark.sql.column`` or ``Column``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [
            n for n in names
            if n.startswith(("pyspark.sql.functions", "pyspark.sql.column")) or n.endswith(".Column")
        ]
    return found


def test_run_path_modules_found():
    assert {p.parent.name for p in MODULES} == set(RUN_PATH)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_run_path_imports_no_column_api(path):
    assert column_imports(path.read_text()) == []


def test_detector_flags_column_imports():
    assert column_imports(
        "from pyspark.sql import functions as F\n"
        "from pyspark.sql import Column\n"
        "import pyspark.sql.functions\n"
        "from pyspark.sql.functions import col\n"
        "from pyspark.sql import DataFrame\n"
    ) == [
        "pyspark.sql.functions",
        "pyspark.sql.Column",
        "pyspark.sql.functions",
        "pyspark.sql.functions.col",
    ]
