"""The narrative demos run against the current library: each exits 0 and
prints a line that only a correct run prints. ``run_demo_pipeline.py``
writes into the repository and is covered by the demo-corpus trace of the
acceptance suite instead."""
import os
import subprocess
import sys

import pytest

from .conftest import DATA_DIR

ROOT = DATA_DIR.parent


@pytest.mark.parametrize("script, expected", [
    ("mine_acknowledgments.py", "  position 2: NameMatch via 'long chen'"),
    ("infer_mobility.py", "  gap: ExcludedWindowGap"),
])
def test_demo_runs(script, expected):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout.splitlines()
