"""The demos run end to end and exit cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 06_enumeration_census.py is left out: it runs the n=7 census and its
# minimal members, about 13 s, which the census tests already cover.
DEMOS = [
    "01_words_and_graphs.py",
    "02_deciding_representability.py",
    "03_representation_numbers.py",
    "04_pattern_avoidance.py",
    "05_graph_operations.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
