"""Smoke test: every Python demo runs to completion.

``06_cli_pipeline.sh`` is left out; it needs the ``longipet`` entry point
on PATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("0[1-5]*.py"))


def test_all_five_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    # The demos' temporary work directories go under their own TMPDIR, which
    # must be empty again once the demo exits.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmpdir))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert sorted(p.name for p in tmpdir.iterdir()) == []
