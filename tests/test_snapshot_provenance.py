"""The provenance each benchmark snapshot records for the code it measured."""
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench_snapshot import provenance  # noqa: E402

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=root, capture_output=True, text=True, check=True).stdout


def test_provenance_names_commit_and_uncommitted_changes(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "first")
    head = _git(tmp_path, "rev-parse", "HEAD").strip()

    clean = provenance(tmp_path)
    assert clean == {"commit": head, "dirty": False,
                     "diff_sha256": hashlib.sha256(b"").hexdigest()}

    (tmp_path / "a.txt").write_text("two\n")
    edited = provenance(tmp_path)
    diff = subprocess.run(["git", "diff", "HEAD"], cwd=tmp_path, capture_output=True,
                          check=True).stdout
    assert edited["commit"] == head and edited["dirty"]
    assert edited["diff_sha256"] == hashlib.sha256(diff).hexdigest() != clean["diff_sha256"]

    # an untracked file leaves the diff alone but marks the tree dirty
    (tmp_path / "a.txt").write_text("one\n")
    (tmp_path / "b.txt").write_text("new\n")
    untracked = provenance(tmp_path)
    assert untracked["dirty"] and untracked["diff_sha256"] == clean["diff_sha256"]
