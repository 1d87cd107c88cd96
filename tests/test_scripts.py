"""Smoke tests of the experiment scripts: each runs to exit 0 on tiny
arguments in a fresh interpreter that imports the package from ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "sequence_table.py": ["--n-max", "6", "--census-limit", "5"],
    "polynomial_gallery.py": ["--tree", "(() ())"],
    "montecarlo_sweep.py": ["--trees", "3", "--max-size", "4", "--trials", "2000"],
    "code_lines.py": [],
    "cli_corpus.py": [],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *RUNS[script]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_every_script_has_a_smoke_run():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(RUNS)
