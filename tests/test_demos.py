"""The narrative demos run against the current library: each exits 0 and
prints a line that only a correct run prints. ``run_demo_pipeline.py``
writes into the repository and is covered by the demo-corpus trace of the
acceptance suite instead. The CLI gives the pinned demo artifacts under
every other installed CPython the package supports."""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .conftest import DATA_DIR
from .test_pipeline import DEMO_DIGESTS

ROOT = DATA_DIR.parent


@pytest.mark.parametrize("script, expected", [
    ("mine_acknowledgments.py", "  position 2: NameMatch via 'long chen'"),
    # the mention walk: the matched text, sliced from the acknowledgment
    ("mine_acknowledgments.py", "  'China Scholarship Council' at (103, 128)"),
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


def _starts(exe: str, minor: int) -> bool:
    """Whether ``exe`` starts and is CPython 3.``minor``."""
    try:
        done = subprocess.run(
            [exe, "-c", "import sys; print(sys.implementation.name, sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return False
    return done.returncode == 0 and done.stdout.strip() == f"cpython (3, {minor})"


def _candidates(minor: int):
    """``python3.X`` on PATH, then the one in ``pyenv prefix 3.X``."""
    yield shutil.which(f"python3.{minor}")
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        done = subprocess.run(
            [pyenv, "prefix", f"3.{minor}"], capture_output=True, text=True, timeout=60,
        )
        if done.returncode == 0:
            yield str(Path(done.stdout.strip()) / "bin" / f"python3.{minor}")


def other_pythons() -> list[str]:
    """The first interpreter found that starts, for each CPython from
    3.10 through 3.19 other than this one."""
    found = []
    for minor in range(10, 20):
        if minor == sys.version_info.minor:
            continue
        exe = next((c for c in _candidates(minor) if c is not None and _starts(c, minor)), None)
        if exe is not None:
            found.append(exe)
    return found


def test_demo_artifacts_are_the_same_on_every_installed_python(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other CPython 3.10 or later found")
    env = dict(os.environ, PYTHONPATH="src")
    for n, exe in enumerate(pythons):
        out = tmp_path / str(n)
        done = subprocess.run(
            [exe, "-m", "fundmob.cli",
             "--input", "data/demo/corpus.jsonl",
             "--lexicon", "data/lexicon_csc.txt",
             "--surnames", "data/surnames_cn.txt",
             "--field-map", "data/field_map.tsv",
             "--country-aliases", "data/country_aliases.tsv",
             "--disambig-config", "data/disambig_weights.cfg",
             "--out-dir", str(out)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (exe, done.stderr)
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DEMO_DIGESTS}
        assert digests == DEMO_DIGESTS, exe
