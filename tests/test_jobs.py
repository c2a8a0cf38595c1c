"""The ``jobs/`` entry points, run as documented: from the repository root,
as a script and as a module."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp.paper_numbers import PAPER_TABLE2
from repro.exp.tables import TABLES

ROOT = Path(__file__).resolve().parent.parent
RUN_TABLE = {"script": ["jobs/run_table.py"], "module": ["-m", "jobs.run_table"]}
# A JVM that cannot launch: any Spark start in the job fails it.
NO_SPARK = {"JAVA_HOME": "/nonexistent"}


def _run(args: list[str], **env: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        timeout=300,
    )


@pytest.mark.parametrize("form", RUN_TABLE)
def test_run_table2_prints_every_dataset_without_spark(form):
    out = _run([*RUN_TABLE[form], "table2"], **NO_SPARK)
    assert out.returncode == 0, out.stderr.decode()
    heading, header, _rule, *rows = out.stdout.decode().splitlines()
    assert heading == TABLES["table2"].heading
    assert header.split() == " | ".join(TABLES["table2"].columns).split()
    assert [r.split("|")[0].strip() for r in rows] == list(PAPER_TABLE2)


@pytest.mark.parametrize("form", RUN_TABLE)
def test_run_table_unknown_name_prints_usage(form):
    out = _run([*RUN_TABLE[form], "table9"], **NO_SPARK)
    err = out.stderr.decode()
    assert out.returncode != 0
    assert err.startswith("usage: run_table.py")
    assert "Traceback" not in err


def test_render_reproduces_committed_experiments_md():
    out = _run(["jobs/render_experiments.py"], **NO_SPARK)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (ROOT / "EXPERIMENTS.md").read_bytes()
