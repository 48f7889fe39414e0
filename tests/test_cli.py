"""Command-line frontend: exit codes, artifacts, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rookpaths.cli import main


def run_cli(args, out):
    return main(["--out", str(out)] + args)


def test_rook_terms(tmp_path, capsys):
    assert run_cli(["rook-terms", "--n", "8"], tmp_path) == 0
    data = json.loads((tmp_path / "rook-terms.json").read_text())
    assert data["terms"][2] == "222"
    assert data["provenance"] == "dp"
    assert "4223303759148" in capsys.readouterr().out


def test_queen_terms(tmp_path):
    assert run_cli(["queen-terms", "--n", "7"], tmp_path) == 0
    data = json.loads((tmp_path / "queen-terms.json").read_text())
    assert data["terms"][-1] == "1540840801552"


def test_diag_and_step_gf(tmp_path):
    assert run_cli(["diag", "--n", "6", "--model", "rook"], tmp_path) == 0
    assert run_cli(["step-gf", "--model", "rook"], tmp_path) == 0
    text = (tmp_path / "rook-step-gf.txt").read_text()
    assert "s^1" in text and ")/(" in text


def test_guess_and_unroll(tmp_path):
    assert run_cli(["guess-rec", "--n", "25", "--order", "3", "--degree", "4"], tmp_path) == 0
    ops = json.loads((tmp_path / "guessed-recurrences.json").read_text())
    assert len(ops) == 1
    assert ops[0]["kind"] == "shift"
    assert run_cli(["rec-unroll", "--n", "10"], tmp_path) == 0
    seq = json.loads((tmp_path / "unrolled.json").read_text())
    assert seq["terms"][3] == "9918"


def test_ode_to_rec(tmp_path, capsys):
    assert run_cli(["ode-to-rec"], tmp_path) == 0
    rec = json.loads((tmp_path / "recurrence.json").read_text())
    assert rec["kind"] == "shift"
    assert len(rec["terms"]) == 5  # order-4 recurrence


def test_lipshitz_bounds(tmp_path, capsys):
    assert run_cli(["lipshitz-bounds"], tmp_path) == 0
    data = json.loads((tmp_path / "lipshitz-bounds.json").read_text())
    assert data["raw_N"] == 425
    assert data["raw_unknowns"] == 1391641251
    assert data["refined_rows"] == 8917 and data["refined_cols"] == 9139
    out = capsys.readouterr().out
    assert "425" in out and "8917 x 9139" in out


def test_queens_root(tmp_path, capsys):
    assert run_cli(["queens-root"], tmp_path) == 0
    data = json.loads((tmp_path / "queens-root.json").read_text())
    assert data["normalized_root"].startswith("0.2185")
    assert data["normalized_root_cubed"].startswith("0.0104")
    assert data["verbatim_root"] is None


def test_local_exponents(tmp_path, capsys):
    assert run_cli(["local-exponents"], tmp_path) == 0
    rows = json.loads((tmp_path / "local-exponents.json").read_text())
    classes = {r["location"]: r["class"] for r in rows}
    assert classes["-1/6"] == "removable"
    assert classes["inf"] == "logarithmic"


def test_identity_checks(tmp_path):
    assert run_cli(["identity-checks", "--order", "12"], tmp_path) == 0
    rows = json.loads((tmp_path / "identity-checks.json").read_text())
    assert {r["check"] for r in rows} == {"contiguity", "quartic-pullback", "alternative-form"}
    assert all(r["status"] == "PASS" for r in rows)


def test_closed_form_command(tmp_path):
    assert run_cli(["closed-form-check", "--n", "12"], tmp_path) == 0


def test_telescope_and_verify_cert(tmp_path):
    assert run_cli(["telescope", "--stage", "all"], tmp_path) == 0
    cert_path = tmp_path / "certificate.json"
    assert cert_path.exists()
    assert run_cli(["verify-cert", "--input", str(cert_path)], tmp_path) == 0


def test_artifacts_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["guess-rec", "--n", "25", "--order", "3", "--degree", "4"], out) == 0
        assert run_cli(["queens-root"], out) == 0
    for name in ("guessed-recurrences.json", "queens-root.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_certificate_artifact_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["telescope", "--stage", "all"], out) == 0
    assert (a / "certificate.json").read_bytes() == (b / "certificate.json").read_bytes()


def test_usage_error_exit_code(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "rookpaths.cli", "--out", str(tmp_path),
         "rec-unroll", "--n", "10", "--input", str(tmp_path / "missing.json")],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert "error" in result.stderr.lower()


def op_json(*terms, vars=("x",)):
    """Operator JSON in d/dx over vars; terms are (exponent, coefficient text) pairs."""
    return {"vars": list(vars), "dvars": ["x"], "terms": [{"exp": [e], "coeff": c} for e, c in terms]}


# the five --input/--initial paths, each fed a truncated file and a coefficient
# in a variable the operator does not have
INPUT_PATHS = {
    "verify-cert": (["verify-cert", "--input", "BAD"], {"P": op_json((0, "1*y^1")), "S": "0", "T": "0"}),
    "local-exponents": (["local-exponents", "--input", "BAD"], op_json((2, "1*y^1"))),
    "rec-unroll-input": (["rec-unroll", "--n", "10", "--input", "BAD"],
                         {"terms": [{"exp": [0], "coeff": "1*y^1"}]}),
    "rec-unroll-initial": (["rec-unroll", "--n", "10", "--initial", "BAD"],
                           {"name": "a", "terms": ["1", "1*y^1"], "provenance": "dp"}),
    "ode-to-rec": (["ode-to-rec", "--input", "BAD"], op_json((1, "1*y^1"))),
}
# the message names the field or parameter at fault
MUST_NAME = {"rec-unroll-initial-wrong-variable": "terms", "rec-unroll-negative-n": "n_max",
             "guess-rec-negative-order": "max_order", "guess-rec-negative-degree": "max_degree",
             "pullback-negative-degree": "max_degree", "closed-form-negative-n": "n_max",
             "identity-checks-negative-order": "order",
             "prove-all-negative-truncation": "--truncation", "telescope-negative-degree": "--degree"}
TRUNCATED = '{"vars": ["x"], "dvars": ["x"], "terms": [{"exp": [2], "co'


@pytest.mark.parametrize("args, payload", [
    (["verify-cert", "--input", "BAD"], {"P": {}}),
    (["local-exponents", "--input", "BAD"], [1, 2]),
    (["rec-unroll", "--n", "10", "--input", "BAD"], {"terms": [{"exp": [], "coeff": "n"}]}),
    (["rec-unroll", "--n", "10", "--initial", "BAD"], {"terms": ["1", "6"]}),
    (["ode-to-rec", "--input", "BAD"],
     {"vars": ["x"], "dvars": ["x"], "terms": [{"exp": [0], "coeff": 5}]}),
    (["ode-to-rec", "--input", "BAD"], {"vars": ["x"], "dvars": ["x"], "terms": []}),
    (["local-exponents", "--input", "BAD"], {"vars": ["x"], "dvars": ["x"], "terms": []}),
    (["local-exponents", "--input", "BAD"],
     {"vars": ["x"], "dvars": ["x"], "terms": [{"exp": [2], "coeff": "x^2-2"}, {"exp": [0], "coeff": "1"}]}),
    (["ode-to-rec", "--input", "BAD"], op_json((1, "1*x^-1"))),
    (["ode-to-rec", "--input", "BAD"], op_json((-1, "1"))),
    (["ode-to-rec", "--input", "BAD"], op_json((1.5, "1"))),
    (["ode-to-rec", "--input", "BAD"], op_json((True, "1"), (0, "1"))),
    (["local-exponents", "--input", "BAD"], op_json((2, "1"), (-1, "1"))),
    (["local-exponents", "--input", "BAD"], op_json((2, "1*x^1"), (0, "1"), vars=("x", "s"))),
    (["rec-unroll", "--n", "10", "--input", "BAD"],
     {"terms": [{"exp": [0.5], "coeff": "1"}, {"exp": [1], "coeff": "1"}]}),
    (["rec-unroll", "--n", "10", "--initial", "BAD"], {"name": "a", "terms": ["1", 1.5], "provenance": "dp"}),
    (["rec-unroll", "--n", "-3"], None),
    (["guess-rec", "--n", "25", "--order", "-1", "--degree", "4"], None),
    (["guess-rec", "--n", "25", "--order", "3", "--degree", "-1"], None),
    (["pullback-search", "--max-degree", "-1"], None),
    (["closed-form-check", "--n", "-1"], None),
    (["identity-checks", "--order", "-1"], None),
    (["prove-all", "--truncation", "-1"], None),
    (["telescope", "--degree", "-1"], None),
] + [(args, TRUNCATED) for args, _ in INPUT_PATHS.values()]
  + [(args, payload) for args, payload in INPUT_PATHS.values()],
    ids=["verify-cert", "local-exponents", "rec-unroll-input", "rec-unroll-initial", "ode-to-rec",
         "ode-to-rec-zero", "local-exponents-zero", "local-exponents-noncanonical",
         "ode-to-rec-negative-power", "ode-to-rec-negative-derivative",
         "ode-to-rec-fractional-derivative", "ode-to-rec-boolean-derivative",
         "local-exponents-negative-derivative", "local-exponents-bivariate",
         "rec-unroll-fractional-shift", "rec-unroll-initial-fractional-term",
         "rec-unroll-negative-n", "guess-rec-negative-order", "guess-rec-negative-degree",
         "pullback-negative-degree", "closed-form-negative-n", "identity-checks-negative-order",
         "prove-all-negative-truncation", "telescope-negative-degree"]
    + [f"{name}-truncated" for name in INPUT_PATHS] + [f"{name}-wrong-variable" for name in INPUT_PATHS])
def test_malformed_input_exits_two(tmp_path, request, args, payload):
    # a malformed file or a negative size is bad input (exit 2, one line), not
    # a crash; a str payload is written as it is, anything else as JSON
    bad = tmp_path / "bad.json"
    bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    result = subprocess.run(
        [sys.executable, "-m", "rookpaths.cli", "--out", str(tmp_path)]
        + [str(bad) if a == "BAD" else a for a in args],
        capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert MUST_NAME.get(request.node.callspec.id, "") in result.stderr


def test_failing_check_exits_one(tmp_path):
    # asymptotics with an unreachable tolerance must exit 1
    assert run_cli(["asymptotics", "--n", "150", "--tolerance", "1/100000000"], tmp_path) == 1


def test_diag_queen_model(tmp_path):
    assert run_cli(["diag", "--n", "8", "--model", "queen"], tmp_path) == 0
    data = json.loads((tmp_path / "queen-diag-series.json").read_text())
    assert data["terms"][:3] == ["1", "13", "638"]
    assert data["provenance"] == "series"
