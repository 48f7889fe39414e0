"""Every command's output against the golden manifest (`tests/golden.py`)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import golden

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_every_command_matches_the_manifest(tmp_path):
    expected = json.loads(golden.MANIFEST.read_text())
    assert golden.diff(expected, golden.run_all(tmp_path)) == []


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
