"""Tier-1 guard: compiled bytecode and build metadata must never be committed.

Both have been committed by accident before (104 ``__pycache__`` files,
and a stale ``src/repro.egg-info/`` nothing read); this test makes that
class of mistake fail the suite instead of slipping through review.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked(*pathspecs):
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not running from a git checkout")
    proc = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "ls-files", *pathspecs],
        capture_output=True,
        text=True,
        check=True,
    )
    return [line for line in proc.stdout.splitlines() if line]


def test_no_tracked_bytecode():
    tracked = _tracked("*.pyc", "*.pyo", "__pycache__")
    assert tracked == [], f"bytecode files are tracked by git: {tracked[:10]}"


def test_no_tracked_egg_info():
    tracked = _tracked("*.egg-info", "*.egg-info/*")
    assert tracked == [], f"build metadata is tracked by git: {tracked[:10]}"
