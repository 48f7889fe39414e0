"""Every command's output against the golden manifest (`tests/golden.py`), and
the functions those commands reach against the allowlist (`tests/reach.py`)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import reach

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of every command line: the manifest and the package functions entered."""
    return reach.run_traced(tmp_path_factory.mktemp("golden"))


def test_every_command_matches_the_manifest(traced):
    expected = json.loads(golden.MANIFEST.read_text())
    assert golden.diff(expected, traced[0]) == []


def test_every_function_is_reached_or_allowed(traced):
    unlisted, stale = reach.check(traced[1])
    assert (unlisted, stale) == ([], []), "delete the function, or update tests/reach_allow.txt"
    assert all(reach.allowed().values()), "every allowlist entry gives a reason"


def test_manifest_holds_under_both_hash_seeds():
    # the whole list in one fresh interpreter per PYTHONHASHSEED, both at once
    expected = json.loads(golden.MANIFEST.read_text())
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen([sys.executable, golden.__file__, "--print"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
             for seed in ("0", "1")]
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        assert golden.diff(expected, json.loads(stdout)) == []
