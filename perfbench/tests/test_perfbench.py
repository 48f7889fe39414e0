"""Checks of the benchmark itself: its gates, its wrappers and its contract.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def pinned():
    return workloads.load_pinned()


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(n: int) -> str:
    return "".join(f"[PASS] check {i}\n" for i in range(n))


def test_prove_gate_accepts_pinned_answer(pinned):
    cert = b"certificate"
    pinned = dict(pinned, certificate_sha256=hashlib.sha256(cert).hexdigest())
    workloads.check_prove(0, _report(pinned["prove_checks"]), cert, pinned)


def test_prove_gate_rejects_perturbed_digest(pinned):
    bad = dict(pinned, certificate_sha256="0" * 64)
    with pytest.raises(workloads.GateError, match="sha256"):
        workloads.check_prove(0, _report(pinned["prove_checks"]), b"certificate", bad)


def test_prove_gate_rejects_failed_check(pinned):
    report = _report(pinned["prove_checks"] - 1) + "[FAIL] stage C key equation\n"
    with pytest.raises(workloads.GateError, match="checks passed"):
        workloads.check_prove(1, report, b"", pinned)


def test_pullback_gate_rejects_perturbed_candidate_text(pinned):
    key = "0,0,1/3"
    rows = copy.deepcopy(pinned["pullback"][key])
    workloads.check_pullback(key, rows, pinned)
    rows[1]["map"] = rows[1]["map"].replace("81", "82", 1)
    with pytest.raises(workloads.GateError, match="differ"):
        workloads.check_pullback(key, rows, pinned)


def test_pullback_gate_rejects_reordered_candidates(pinned):
    key = "0,0,1/3"
    rows = list(reversed(pinned["pullback"][key]))
    with pytest.raises(workloads.GateError):
        workloads.check_pullback(key, rows, pinned)
    with pytest.raises(workloads.GateError):
        workloads.check_pullback("0,0,0", rows, pinned)


def test_series_sizes_stay_in_the_pinned_band(pinned):
    for seed in range(3 * workloads.UNROLL_BAND):
        assert str(workloads.series_sizes(seed)["unroll_n"]) in pinned["rec_unroll_sha256"]


def test_refute_inputs_are_the_two_stage_a_operators(tmp_path):
    inputs = workloads.setup("refute", 0, tmp_path)
    assert [op.dvars for op in (inputs["P1"], inputs["P2"])] == [("x", "s"), ("x", "s")]
    assert [name for name, _ in workloads.operations("refute", inputs)] == [
        "stage_a_search(F, 0)", "stage_b_search(P1, P2, 2)"]


def test_speed_correction_scales_with_the_probe_time():
    ref = speed.REF_PROBE_S
    assert speed.corrected(10.0, [ref, ref]) == pytest.approx(10.0)
    assert speed.corrected(10.0, [2 * ref, 2 * ref]) == pytest.approx(5.0)
    assert speed.corrected(10.0, [ref / 2]) == pytest.approx(20.0)


def test_sampler_probes_while_the_main_thread_works():
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 12 * speed.SAMPLE_INTERVAL_S:
        sum(range(1000))
    end = time.perf_counter()
    sampler.stop()
    probes = sampler.between(start, end)
    assert len(probes) >= 5 and all(p > 0 for p in probes)


def test_self_test_names_are_per_layer_metrics(spec):
    per_layer = {m["name"] for m in spec["per_layer"]}
    named = set()
    for workload in workloads.WORKLOADS:
        assert set(run.EXPECTED_NONZERO[workload]) <= per_layer, workload
        named |= set(run.EXPECTED_NONZERO[workload])
    assert per_layer - named == {"trace.overhead_s", "trace.overhead_share"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


_WRAP_CHECK = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from rookpaths.exactmath import RatFun, ratfun
a = ratfun("(x+1)/(x-1)", ("x",))
b = ratfun("(x-1)/(x+2)", ("x",))
t = Tracer()
sites = t.install()
mods = sys.modules
def wrapped(mod, name):
    return hasattr(getattr(mods[mod], name), "__wrapped__")
must = [(m, "mpoly_gcd") for m in ("rookpaths.exactmath.mpoly", "rookpaths.exactmath.ratfun",
                                   "rookpaths.exactmath.linalg", "rookpaths.ore", "rookpaths.exactmath")]
must += [(m, "linear_nullspace") for m in ("rookpaths.ore", "rookpaths.telescope")]
must += [("rookpaths.cli", n) for n in ("stage_a_search", "stage_b_search", "stage_c_reconstruct",
                                         "verify_key_equation", "pullback_search")]
_ = a * b + b
print(json.dumps({"unwrapped": [m for m in must if not wrapped(*m)], "sites": sites,
                  "metrics": t.metrics(), "rmul": RatFun.__rmul__ is RatFun.__mul__}))
"""


def test_wrappers_rebind_every_import_site():
    out = subprocess.run([sys.executable, "-c", _WRAP_CHECK, str(HERE)], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(ROOT / "src")}).stdout
    result = json.loads(out)
    assert result["unwrapped"] == []
    assert result["rmul"]
    assert all(n >= 1 for n in result["sites"].values()), result["sites"]
    m = result["metrics"]
    assert m["ratfun.mul.calls"] == 1 and m["ratfun.add.calls"] == 1
    assert m["mpoly.gcd.calls"] > 0 and m["mpoly.gcd.s"] > 0 and m["mpoly.mul.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
