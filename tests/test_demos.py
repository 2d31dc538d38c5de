"""Smoke test: every demo runs to completion.

``06_cli_pipeline.sh`` calls the ``longipet`` entry point, so it runs with
a shim of that name on PATH that starts the CLI module of the source tree."""

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


def test_cli_pipeline_demo_writes_its_report_and_run_manifests(tmp_path):
    bin_dir, tmpdir = tmp_path / "bin", tmp_path / "tmp"
    bin_dir.mkdir()
    tmpdir.mkdir()
    shim = bin_dir / "longipet"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m longipet.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(tmpdir),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    run = subprocess.run(
        ["sh", str(REPO / "demos" / "06_cli_pipeline.sh")], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    report = [line.split(": ", 1)[1] for line in lines if line.startswith("report: ")]
    manifests = lines[-2:]
    assert len(report) == 1
    assert sorted(Path(m).name for m in manifests) == ["report.svg.run.json",
                                                       "run_manifest.json"]
    for path in report + manifests:
        assert Path(path).is_file() and Path(path).is_relative_to(tmpdir), path
