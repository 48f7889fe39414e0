"""Command-line frontend: exit codes, artifacts, determinism."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rookpaths.cli import main

CERTIFICATE_SHA256 = "27e7212f5b006ccd5fc81d474add7f943418901cd27799000822e2aa696aa422"
STAGE_SHA256 = {
    "stage-a-operator-1.json": "4486f641c83238c9c1a5057904182f3847b9eb34166459a6a752b1cdbcd4b471",
    "stage-a-operator-2.json": "0cb032ce1592fd177d8e33ed055b8cf5cec2632d278911095bed8ee79d4893ea",
    "stage-a-phi-1.txt": "d3b12242a75a9faa390d268c211664b3873165c4db8e527547f76489c3aa663d",
    "stage-a-phi-2.txt": "3b1ba46947216168b6aa1169fbfabc4a2f11c9a1a7ecceb1cdce49140f3a73a9",
    "stage-b-P.json": "3524900543eb05cd6ea11cba9cc2e4692393c8442e3e9e91600077fa48ec1302",
    "stage-b-Q.json": "3177fa03de625c11d0c32d4b0685a173dc2d3c44bfe9d7aa449ef5137bbcac67",
}
PULLBACK_SHA256 = "0e76c77e6e99c9912cfd979178343fc9e0acdd1fcb7c2a22539fccc00039b951"
TERMS_SHA256 = {
    "rook-terms.json": "bc4e9bd2bf01eab116da115513615d416c712358f8cc6138ef70c0817a540af6",
    "queen-terms.json": "a293b9bbe9abb4ccb056e961557ae72b427a8890a396324d336403354324041b",
}


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


def test_rec_unroll_past_the_digit_limit(tmp_path, capsys):
    # a_3000 has more digits than Python's default int-to-str limit (4,300);
    # the program's own results are exempt, input parsing is not
    limit = sys.get_int_max_str_digits()
    assert run_cli(["rec-unroll", "--n", "3000"], tmp_path) == 0
    assert sys.get_int_max_str_digits() == limit
    terms = json.loads((tmp_path / "unrolled.json").read_text())["terms"]
    assert len(terms) == 3001 and len(terms[-1]) > 4300
    capsys.readouterr()
    big = tmp_path / "big.json"
    big.write_text('{"name": "a", "terms": ["1", "3", ' + "9" * 5000 + '], "provenance": "dp"}')
    assert run_cli(["rec-unroll", "--n", "5", "--initial", str(big)], tmp_path) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "4300 digits" in err


def test_import_leaves_dataclasses_unloaded():
    # start-up cost: no record is built by dataclasses, whose import also loads
    # inspect and dis; -S keeps site hooks out of the module list
    import rookpaths
    src = str(Path(rookpaths.__file__).parents[1])
    result = subprocess.run([sys.executable, "-S", "-c", "import sys, rookpaths, rookpaths.cli; "
                             "print('dataclasses' in sys.modules, 'rookpaths.telescope' in sys.modules)"],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_over_limit_sequence_term_is_named_not_quoted(tmp_path):
    # a term given as decimal text past the digit limit: one short line that
    # names the limit and the term's index, without echoing the term
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"name": "a", "terms": ["1", "3", "9" * 5000], "provenance": "dp"}))
    result = subprocess.run([sys.executable, "-m", "rookpaths.cli", "--out", str(tmp_path),
                             "rec-unroll", "--n", "5", "--initial", str(big)], capture_output=True, text=True)
    assert result.returncode == 2
    line, = result.stderr.strip().splitlines()
    assert "4300-digit limit" in line and "term 2" in line and len(line) < 200


def test_prove_all_is_byte_identical_across_hash_seeds(tmp_path):
    # two processes with different string hashing must write the same bytes, for
    # prove-all, telescope and pullback-search, whose artifacts are pinned as well
    outputs = []
    for seed in ("0", "1"):
        runs = {}
        for command in ("prove-all", "telescope", "pullback-search"):
            out = tmp_path / f"seed{seed}-{command}"
            result = subprocess.run([sys.executable, "-m", "rookpaths.cli", "--out", str(out), command],
                                    capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert result.returncode == 0, result.stderr
            runs[command] = (result.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())})
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]["prove-all"][1]["certificate.json"]).hexdigest() == CERTIFICATE_SHA256
    artifacts = outputs[0]["telescope"][1]
    assert {name: hashlib.sha256(artifacts[name]).hexdigest() for name in STAGE_SHA256} == STAGE_SHA256
    candidates = outputs[0]["pullback-search"][1]["pullback-candidates.json"]
    assert hashlib.sha256(candidates).hexdigest() == PULLBACK_SHA256


def test_pullback_search_at_the_degree_cap_writes_the_default_candidates(tmp_path):
    assert run_cli(["pullback-search", "--max-degree", "16"], tmp_path) == 0
    candidates = (tmp_path / "pullback-candidates.json").read_bytes()
    assert hashlib.sha256(candidates).hexdigest() == PULLBACK_SHA256


def test_prove_all_counts_the_rook_diagonal_once(tmp_path, monkeypatch, capsys):
    # one rook table at n = max(40, --truncation): the pinned terms, the unroll,
    # the reduction's base cases and the closed-form, identity and asymptotics
    # checks each read a prefix of it; the other table is the queen's
    from rookpaths import hypergeom, proof, walks
    seen, dp = [], walks.diagonal_sequence

    def counted(model, n):
        seen.append(n)
        return dp(model, n)
    for module in (proof, hypergeom, walks):
        monkeypatch.setattr(module, "diagonal_sequence", counted)
    for truncation, sizes in ((30, [7, 40]), (45, [7, 45])):
        seen.clear()
        assert run_cli(["prove-all", "--truncation", str(truncation)], tmp_path) == 0
        assert sorted(seen) == sizes


def test_stages_run_on_the_computed_embedding(tmp_path, monkeypatch, capsys):
    # the transcribed F is only a comparison target: with a perturbed one, the
    # embedding claim alone fails and the stages still write the pinned artifacts
    from rookpaths import rookdata
    reference = rookdata.embedded_f()
    monkeypatch.setattr(rookdata, "embedded_f", lambda: reference * 2)
    assert run_cli(["prove-all"], tmp_path / "prove-all") == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("[PASS]")]
    assert failed == ["[FAIL] residue embedding matches the factored reference form",
                      "prove-all: FAIL (15/16)"]
    assert hashlib.sha256((tmp_path / "prove-all" / "certificate.json").read_bytes()).hexdigest() \
        == CERTIFICATE_SHA256
    assert run_cli(["telescope"], tmp_path / "telescope") == 0
    assert {name: hashlib.sha256((tmp_path / "telescope" / name).read_bytes()).hexdigest()
            for name in STAGE_SHA256} == STAGE_SHA256


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


def test_telescope_and_verify_cert(tmp_path, capsys):
    assert run_cli(["telescope", "--stage", "all"], tmp_path) == 0
    cert_path = tmp_path / "certificate.json"
    assert cert_path.exists()
    assert run_cli(["verify-cert", "--input", str(cert_path)], tmp_path) == 0
    # the file's "verified" field is a claim that verify-cert does not trust: a valid
    # certificate marked false passes and re-emits as read; one marked true whose P
    # has one coefficient perturbed fails the key equation
    text = cert_path.read_text()
    assert text.count('"verified": true') == 1 and text.count("+ 296\"") == 1
    unmarked, perturbed = tmp_path / "unmarked.json", tmp_path / "perturbed.json"
    unmarked.write_text(text.replace('"verified": true', '"verified": false'))
    perturbed.write_text(text.replace("+ 296\"", "+ 297\""))
    capsys.readouterr()
    assert run_cli(["verify-cert", "--input", str(unmarked)], tmp_path) == 0
    assert capsys.readouterr().out == "key equation: PASS: residual identically zero\nre-emission bit-exact: yes\n"
    assert run_cli(["verify-cert", "--input", str(perturbed)], tmp_path) == 1
    assert "key equation: FAIL" in capsys.readouterr().out


def test_dp_terms_keep_their_pinned_bytes(tmp_path):
    # the DP's terms past the sizes that other tests check, as bytes
    assert run_cli(["rook-terms", "--n", "100"], tmp_path) == 0
    assert run_cli(["queen-terms", "--n", "40"], tmp_path) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in TERMS_SHA256}
    assert digests == TERMS_SHA256


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
MUST_NAME = {"rec-unroll-initial-wrong-variable": "terms", "rec-unroll-negative-n": "--n",
             "guess-rec-negative-order": "--order", "guess-rec-negative-degree": "--degree",
             "pullback-negative-degree": "--max-degree", "closed-form-negative-n": "--n",
             "identity-checks-negative-order": "--order",
             "prove-all-negative-truncation": "--truncation", "telescope-negative-degree": "--degree",
             "asymptotics-negative-tolerance": "--tolerance", "asymptotics-zero-tolerance": "--tolerance",
             "asymptotics-zero-denominator-tolerance": "--tolerance",
             "asymptotics-text-tolerance": "--tolerance",
             "asymptotics-small-n": "--n", "rook-terms-negative-n": "--n", "queen-terms-negative-n": "--n",
             "diag-negative-n": "--n", "guess-rec-zero-n": "--n", "closed-form-zero-n": "--n",
             "identity-checks-zero-order": "--order", "prove-all-zero-truncation": "--truncation",
             "rec-unroll-zero-denominator": "malformed recurrence JSON",
             "ode-to-rec-zero-denominator": "malformed operator JSON",
             "verify-cert-zero-denominator": "malformed certificate JSON"}
TRUNCATED = '{"vars": ["x"], "dvars": ["x"], "terms": [{"exp": [2], "co'
# nested past the parser's recursion limit; the message names the file
DEEP = "[" * 100_000 + "]" * 100_000
MUST_NAME.update({f"{name}-deep": "bad.json" for name in INPUT_PATHS})


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
    (["asymptotics", "--tolerance", "-1"], None),
    (["asymptotics", "--tolerance", "0"], None),
    (["asymptotics", "--tolerance", "1/0"], None),
    (["asymptotics", "--tolerance", "abc"], None),
    (["asymptotics", "--n", "50"], None),
    (["rook-terms", "--n", "-1"], None),
    (["queen-terms", "--n", "-1"], None),
    (["diag", "--n", "-1"], None),
    (["guess-rec", "--n", "0", "--order", "3", "--degree", "4"], None),
    (["closed-form-check", "--n", "0"], None),
    (["identity-checks", "--order", "0"], None),
    (["prove-all", "--truncation", "0"], None),
    (["rec-unroll", "--n", "10", "--input", "BAD"], {"terms": [{"exp": [0], "coeff": "1/0"}]}),
    (["ode-to-rec", "--input", "BAD"], op_json((1, "1/0"))),
    (["verify-cert", "--input", "BAD"], {"P": op_json((1, "1")), "S": "(1)/(0)", "T": "0"}),
] + [(args, TRUNCATED) for args, _ in INPUT_PATHS.values()]
  + [(args, payload) for args, payload in INPUT_PATHS.values()]
  + [(args, DEEP) for args, _ in INPUT_PATHS.values()],
    ids=["verify-cert", "local-exponents", "rec-unroll-input", "rec-unroll-initial", "ode-to-rec",
         "ode-to-rec-zero", "local-exponents-zero", "local-exponents-noncanonical",
         "ode-to-rec-negative-power", "ode-to-rec-negative-derivative",
         "ode-to-rec-fractional-derivative", "ode-to-rec-boolean-derivative",
         "local-exponents-negative-derivative", "local-exponents-bivariate",
         "rec-unroll-fractional-shift", "rec-unroll-initial-fractional-term",
         "rec-unroll-negative-n", "guess-rec-negative-order", "guess-rec-negative-degree",
         "pullback-negative-degree", "closed-form-negative-n", "identity-checks-negative-order",
         "prove-all-negative-truncation", "telescope-negative-degree",
         "asymptotics-negative-tolerance", "asymptotics-zero-tolerance",
         "asymptotics-zero-denominator-tolerance", "asymptotics-text-tolerance", "asymptotics-small-n",
         "rook-terms-negative-n", "queen-terms-negative-n", "diag-negative-n", "guess-rec-zero-n",
         "closed-form-zero-n", "identity-checks-zero-order", "prove-all-zero-truncation",
         "rec-unroll-zero-denominator", "ode-to-rec-zero-denominator", "verify-cert-zero-denominator"]
    + [f"{name}-truncated" for name in INPUT_PATHS] + [f"{name}-wrong-variable" for name in INPUT_PATHS]
    + [f"{name}-deep" for name in INPUT_PATHS])
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


@pytest.mark.parametrize("name", list(INPUT_PATHS))
def test_input_files_are_capped_before_any_read(tmp_path, capsys, monkeypatch, name):
    # --help states the cap; a file one byte over it (sparse, so it takes no disk)
    # exits 2 with one line naming the cap, and nothing reads the file
    from rookpaths import cli
    args, _ = INPUT_PATHS[name]
    with pytest.raises(SystemExit):
        main([args[0], "--help"])
    flag = args[-2]
    flag_help = " ".join(capsys.readouterr().out.split()).split(f"{flag} {flag[2:].upper()} ")[-1]
    assert f"at most {cli.INPUT_BYTES_CAP >> 20} MiB" in flag_help.split(" --")[0], flag_help

    def unread(*args, **kwargs):
        raise AssertionError("an over-cap input file was read")
    big = tmp_path / "big.json"
    with big.open("wb") as f:
        f.truncate(cli.INPUT_BYTES_CAP + 1)
    monkeypatch.setattr(Path, "read_text", unread)
    assert run_cli([str(big) if a == "BAD" else a for a in args], tmp_path) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"over the {cli.INPUT_BYTES_CAP}-byte cap" in err, err


@pytest.mark.parametrize("name", ["ode-to-rec", "local-exponents", "rec-unroll-input", "verify-cert"])
def test_repeated_exponent_is_refused_before_any_coefficient(tmp_path, capsys, name):
    # two terms of one exponent exit 2 with one line naming it, before any coefficient
    # is parsed (the repeat's "1/0" would be a parse error), where a dict of the
    # terms kept only the last and the command went on to exit 0
    args, _ = INPUT_PATHS[name]
    if name == "rec-unroll-input":
        payload = {"terms": [{"exp": [0], "coeff": "1*n^1"}, {"exp": [1], "coeff": "-2"},
                             {"exp": [1], "coeff": "1/0"}]}
    else:
        payload = op_json((2, "1*x^2"), (0, "-2"), (1, "1*x^1"), (0, "1/0"))
        if name == "verify-cert":
            payload = {"P": payload, "S": "0", "T": "0"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert run_cli([str(bad) if a == "BAD" else a for a in args], tmp_path) == 2
    err = capsys.readouterr().err.strip()
    want = "[1]" if name == "rec-unroll-input" else "[0]"
    assert len(err.splitlines()) == 1 and f"exponent {want} is given twice" in err, err


class WorkStarted(Exception):
    pass


def _start_work(*args, **kwargs):
    raise WorkStarted


def _cap_cases(order, degree):
    """One file per capped field, with the operator order and the polynomial degree given."""
    rec = {"terms": [{"exp": [0], "coeff": f"1*n^{degree} + 1"}, {"exp": [order], "coeff": "1"}]}
    return {
        "ode-to-rec": (["ode-to-rec"], op_json((order, f"1*x^{degree}"), (0, "1")), "terms"),
        # a denominator is read before any gcd reduces it
        "local-exponents": (["local-exponents"], op_json((2, f"(1)/(1*x^{degree} + 1)"), (0, "1")), "terms"),
        "rec-unroll": (["rec-unroll", "--n", "20"], rec, "terms"),
        "verify-cert-P": (["verify-cert"], {"P": op_json((order, f"1*x^{degree}")), "S": "0", "T": "0"}, "terms"),
        "verify-cert-S": (["verify-cert"], {"P": op_json((1, "1")), "S": f"1*x^{degree}", "T": "0"}, "S"),
        "verify-cert-T": (["verify-cert"],
                          {"P": op_json((1, "1")), "S": "0", "T": f"(1)/(1*s^{degree - 1}*t^1 + 1)"}, "T"),
    }


@pytest.mark.parametrize("name", list(_cap_cases(1, 1)))
def test_operator_files_are_capped_before_any_work(tmp_path, capsys, monkeypatch, name):
    # an input at both caps reaches the work; one over a cap exits 2 with one
    # line naming the field and the cap, and no work starts
    from rookpaths import cli
    from rookpaths.ore import DEGREE_CAP, ORDER_CAP
    for work in ("verify_key_equation", "diffop_to_rec", "local_exponents", "rec_unroll"):
        monkeypatch.setattr(cli, work, _start_work)
    bad = tmp_path / "bad.json"
    args, payload, field = _cap_cases(ORDER_CAP, DEGREE_CAP)[name]
    bad.write_text(json.dumps(payload))
    with pytest.raises(WorkStarted):
        run_cli(args + ["--input", str(bad)], tmp_path)
    over = [_cap_cases(ORDER_CAP, DEGREE_CAP + 1)]
    if field == "terms" and name != "local-exponents":
        over.append(_cap_cases(ORDER_CAP + 1, DEGREE_CAP))
    for cases, cap in zip(over, (DEGREE_CAP, ORDER_CAP)):
        args, payload, field = cases[name]
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(args + ["--input", str(bad)], tmp_path) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and f"{field}:" in err and f"cap of {cap}" in err, err


@pytest.mark.parametrize("args, work, cap", [
    (["rook-terms", "--n"], "cli.diagonal_sequence", "TERMS_CAP"),
    (["queen-terms", "--n"], "cli.diagonal_sequence", "TERMS_CAP"),
    (["diag", "--n"], "cli.expand_diagonal", "DIAG_CAP"),
    (["rec-unroll", "--n"], "cli.rec_unroll", "UNROLL_CAP"),
    (["pullback-search", "--max-degree"], "cli.pullback_search", "MAX_DEGREE_CAP"),
    (["closed-form-check", "--n"], "cli.closed_form_check", "SERIES_CAP"),
    (["identity-checks", "--order"], "cli.identity_checks", "SERIES_CAP"),
    (["prove-all", "--truncation"], "proof.diagonal_sequence", "SERIES_CAP"),
    (["asymptotics", "--n"], "cli.asymptotics_check", "ASYMPTOTICS_CAP"),
    (["guess-rec", "--order", "0", "--degree", "0", "--n"], "cli.diagonal_sequence", "GUESS_CAP"),
    (["telescope", "--degree"], "cli.stage_a_pair", "TELESCOPE_CAP"),
], ids=["rook-terms", "queen-terms", "diag", "rec-unroll", "pullback-search", "closed-form-check",
        "identity-checks", "prove-all", "asymptotics", "guess-rec", "telescope"])
def test_size_flags_are_capped_before_any_work(tmp_path, capsys, monkeypatch, args, work, cap):
    # --help states the cap; a size at the cap reaches the work, and one past it
    # exits 2 with one line naming the flag before any work starts
    from rookpaths import cli
    cap = getattr(cli, cap)
    with pytest.raises(SystemExit):
        main([args[0], "--help"])
    assert f"at most {cap}" in capsys.readouterr().out
    monkeypatch.setattr(f"rookpaths.{work}", _start_work)
    with pytest.raises(WorkStarted):
        run_cli(args + [str(cap)], tmp_path)
    assert run_cli(args + [str(cap + 1)], tmp_path) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{args[-1]} must be <= {cap}" in err, err


@pytest.mark.parametrize("args, work", [
    (["closed-form-check", "--n"], "cli.closed_form_check"),
    (["identity-checks", "--order"], "cli.identity_checks"),
    (["prove-all", "--truncation"], "proof.diagonal_sequence"),
], ids=["closed-form-check", "identity-checks", "prove-all"])
def test_series_checks_compare_at_least_one_coefficient(tmp_path, capsys, monkeypatch, args, work):
    # a series order of 0 would compare no coefficient and report a vacuous PASS:
    # --help states the floor, 1 reaches the work and 0 exits 2 before any work
    with pytest.raises(SystemExit):
        main([args[0], "--help"])
    assert f"{args[-1]} {args[-1][2:].upper()} series order, at least 1" in " ".join(capsys.readouterr().out.split())
    monkeypatch.setattr(f"rookpaths.{work}", _start_work)
    with pytest.raises(WorkStarted):
        run_cli(args + ["1"], tmp_path)
    assert run_cli(args + ["0"], tmp_path) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{args[-1]} must be >= 1" in err, err


def test_failing_check_exits_one(tmp_path):
    # asymptotics with an unreachable tolerance must exit 1
    assert run_cli(["asymptotics", "--n", "150", "--tolerance", "1/100000000"], tmp_path) == 1


@pytest.mark.parametrize("command, line", [("telescope", "key equation FAIL"),
                                           ("prove-all", "[FAIL] stage C key equation")])
def test_failing_stage_c_check_is_reported(tmp_path, capsys, monkeypatch, command, line):
    # the stage-C certificate (S != 0) fails its key equation; stage A's (S = 0) still pass
    from rookpaths import telescope
    from rookpaths.ore import IdentityReport
    check = telescope.verify_key_equation
    monkeypatch.setattr(telescope, "verify_key_equation", lambda cert, F: (
        check(cert, F) if cert.S.is_zero() else IdentityReport(False, F, "patched")))
    assert run_cli([command], tmp_path) == 1
    out, err = capsys.readouterr()
    assert line in out and err == ""


def _stage_a_fails_with(message, tmp_path, capsys):
    # one line on stderr; prove-all keeps the lines of the three claims before stage A
    from rookpaths.proof import CLAIMS
    for command, lines in (("telescope", []), ("prove-all", [f"[PASS] {name}" for name, _, _ in CLAIMS[:3]])):
        assert run_cli([command], tmp_path) == 1
        out, err = capsys.readouterr()
        assert err == f"check failed: {message}\n" and out.splitlines() == lines


def test_failing_stage_check_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    from rookpaths import telescope
    from rookpaths.ore import IdentityReport
    monkeypatch.setattr(telescope, "verify_key_equation", lambda cert, F: IdentityReport(False, F))
    _stage_a_fails_with("stage A produced a certificate that fails its identity", tmp_path, capsys)


def test_stage_a_without_two_certificates_exits_one(tmp_path, capsys, monkeypatch):
    from rookpaths import telescope
    monkeypatch.setattr(telescope, "stage_a_search", lambda F, total_order, ansatz=None: [])
    _stage_a_fails_with("stage A did not produce the expected two certificates", tmp_path, capsys)


def test_diag_queen_model(tmp_path):
    assert run_cli(["diag", "--n", "8", "--model", "queen"], tmp_path) == 0
    data = json.loads((tmp_path / "queen-diag-series.json").read_text())
    assert data["terms"][:3] == ["1", "13", "638"]
    assert data["provenance"] == "series"


@pytest.mark.parametrize("flag, values, n", [
    ("--input", ["1*n^1 + -5", "1"], 5),
    ("--input", ["2", "1"], 4),
    ("--initial", ["1", "1", "1"], 3),
], ids=["singular", "non-integer", "initial-terms"])
def test_unusable_recurrence_file_exits_two(tmp_path, capsys, flag, values, n):
    # a well-formed recurrence (or set of initial terms) that cannot unroll exits 2
    # with one line naming the file and the index; only the built-in recurrence
    # and terms keep the transcription-bug wording, as a traceback
    path = tmp_path / "file.json"
    if flag == "--input":
        path.write_text(json.dumps({"terms": [{"exp": [j], "coeff": c} for j, c in enumerate(values)]}))
    else:
        path.write_text(json.dumps({"name": "a", "terms": values, "provenance": "dp"}))
    assert run_cli(["rec-unroll", "--n", "10", flag, str(path)], tmp_path) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and str(path) in err and f"at n={n}" in err, err
    assert "transcription" not in err


def test_non_rational_factor_is_named_by_its_degree(tmp_path, capsys):
    # the factor's degree, not its text: one short line even at the degree cap
    bad = tmp_path / "op.json"
    bad.write_text(json.dumps(op_json((2, "1*x^256 + -2"), (0, "1"))))
    assert run_cli(["local-exponents", "--input", str(bad)], tmp_path) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "non-rational factor of degree 256;" in err and len(err) < 200, err


def euler_gap(gap):
    """x^2 d^2 + (1-gap) x d: exponents 0 and gap at 0, and -gap and 0 at infinity."""
    return op_json((2, "1*x^2"), (1, f"{1 - gap}*x^1"))


def test_exponent_gap_is_capped_before_any_frobenius_step(tmp_path, capsys, monkeypatch):
    # --help states the cap; a gap at the cap is classified, and one past it exits 2
    # with one line naming the point, the gap and the cap before any Frobenius step
    from rookpaths import hypergeom
    cap = hypergeom.GAP_CAP
    with pytest.raises(SystemExit):
        main(["local-exponents", "--help"])
    assert f"gap over {cap} is refused" in " ".join(capsys.readouterr().out.split())
    bad = tmp_path / "op.json"
    bad.write_text(json.dumps(euler_gap(cap)))
    assert run_cli(["local-exponents", "--input", str(bad)], tmp_path) == 0
    rows = json.loads((tmp_path / "local-exponents.json").read_text())
    assert [(r["location"], r["difference"], r["class"]) for r in rows] == [
        ("0", str(cap), "removable"), ("inf", str(cap), "removable")]
    monkeypatch.setattr(hypergeom, "_frobenius_consistent", _start_work)
    for gap in (cap + 1, 10 ** 10):
        bad.write_text(json.dumps(euler_gap(gap)))
        capsys.readouterr()
        assert run_cli(["local-exponents", "--input", str(bad)], tmp_path) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1, err
        assert f"point 0: integer exponent gap {gap} is over the cap of {cap}" in err, err


def test_mutated_operator_files_exit_cleanly(tmp_path, capsys):
    # an operator file with keys dropped or renamed, types swapped, zero denominators,
    # negative exponents, exponents at or past the caps and repeated terms, read
    # by local-exponents and ode-to-rec in process: exit 0, 1 or 2, never a
    # traceback, and an exit 2 prints one line.  Every degree and exponent gap
    # is small or over its cap, so no case runs long.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from rookpaths import rookdata
    from rookpaths.exactmath.mpoly import EXPONENT_CAP
    from rookpaths.hypergeom import GAP_CAP
    from rookpaths.ore import DEGREE_CAP, ORDER_CAP
    bases = [rookdata.operator_p2().to_json_dict(), euler_gap(2), euler_gap(GAP_CAP + 1)]
    # drawn afresh, so that a later mutation of a drawn list never reaches the next example
    values = st.sampled_from([None, 0, -1, 1.5, True, "", "x", [], {}, ["x", "x"], [["x"]], {"x": 1}])
    values = values.map(copy.deepcopy)
    exps = st.sampled_from([-1, 0, 1, 2, 3, ORDER_CAP, ORDER_CAP + 1, EXPONENT_CAP, EXPONENT_CAP + 1])
    degrees = st.sampled_from([-1, 0, 1, 2, 3, DEGREE_CAP + 1, EXPONENT_CAP, EXPONENT_CAP + 1])
    texts = st.one_of(
        st.sampled_from(["1/0", "(1)/(0)", "0", "", "x", "1*y^1", "x^2-2", "((1)/(x))", "1*x^1.5"]),
        st.builds(lambda c, d: f"{c}*x^{d}", st.integers(-3, 3), degrees),
        st.builds(lambda d: f"(1)/(1*x^{d} + 1)", degrees),
        st.builds(lambda c, d: f"{c}*x^{d} + -1", st.integers(-3, 3), degrees))

    @st.composite
    def mutated(draw):
        data = json.loads(json.dumps(draw(st.sampled_from(bases))))
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["drop", "rename", "swap", "term-drop", "term-swap", "exp", "coeff",
                                         "extra", "repeat", "vars", "rename-variable"]))
            terms = data.get("terms")
            term = draw(st.sampled_from(terms)) if isinstance(terms, list) and terms else None
            if kind in ("drop", "rename", "swap") and data:
                key = draw(st.sampled_from(sorted(data)))
                if kind == "swap":
                    data[key] = draw(values)
                else:
                    value = data.pop(key)
                    if kind == "rename":
                        data[key + "s"] = value
            elif kind in ("term-drop", "term-swap") and isinstance(term, dict) and term:
                key = draw(st.sampled_from(sorted(term)))
                if kind == "term-swap":
                    term[key] = draw(values)
                else:
                    del term[key]
            elif kind == "exp" and isinstance(term, dict):
                term["exp"] = [draw(exps)]
            elif kind == "coeff" and isinstance(term, dict):
                term["coeff"] = draw(texts)
            elif kind == "extra" and isinstance(terms, list):
                terms.append({"exp": [draw(exps)], "coeff": draw(texts)})
            elif kind == "repeat" and isinstance(term, dict):
                terms.append({**term, "coeff": draw(texts)})
            elif kind == "vars":
                data[draw(st.sampled_from(["vars", "dvars"]))] = draw(
                    st.sampled_from([["x", "s"], ["s", "x"], ["y"], [], ["x", "x"], "x", [1]]))
            elif kind == "rename-variable":  # the same operator in another variable
                name = draw(st.sampled_from(["n", "y", "t"]))
                text = json.dumps(data).replace('"x"', f'"{name}"').replace("*x^", f"*{name}^")
                data = json.loads(text)
        return data

    bad = tmp_path / "op.json"

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutated(), st.sampled_from(["local-exponents", "ode-to-rec"]))
    def check(data, command):
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli([command, "--input", str(bad)], tmp_path)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert len(err.strip().splitlines()) == 1, err

    check()


def test_mutated_recurrence_and_sequence_files_exit_cleanly(tmp_path, capsys):
    # the recurrence file of rec-unroll --input and the sequence files of
    # rec-unroll --initial and guess-rec --input, with keys dropped or renamed, types
    # swapped, "1/0", negative and huge exponents, repeated exponents and 5,000-digit
    # terms: exit 0, 1 or 2, never a traceback, and an exit 2 prints one line.  Orders,
    # degrees and lengths stay small or over their caps, so no case runs long.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from rookpaths import rookdata
    from rookpaths.exactmath.mpoly import EXPONENT_CAP
    from rookpaths.ore import DEGREE_CAP, ORDER_CAP
    from rookpaths.walks import ROOK, diagonal_sequence
    long = "9" * 5000  # past the 4,300-digit limit on integer text
    recurrence = rookdata.recurrence_order3().to_json_dict()
    sequence = json.loads(diagonal_sequence(ROOK, 12).to_json())
    values = st.sampled_from([None, 0, -1, 1.5, True, "", "n", [], {}, ["1"], [[1]], {"n": 1}]).map(copy.deepcopy)
    exps = st.sampled_from([-2, -1, 0, 1, 2, 3, ORDER_CAP, ORDER_CAP + 1, EXPONENT_CAP + 1, 10 ** 30])
    degrees = st.sampled_from([-1, 0, 1, 2, 3, DEGREE_CAP + 1, EXPONENT_CAP + 1, 10 ** 30])
    texts = st.one_of(
        st.sampled_from(["1/0", "(1)/(0)", "0", "", "n", "1*x^1", "n^2-2", "1*n^1.5", long, f"{long}*n^1"]),
        st.builds(lambda c, d: f"{c}*n^{d} + -1", st.integers(-3, 3), degrees))
    terms = st.one_of(values, st.sampled_from(["1/0", "0", "-1", "7", " 8", "1e3", long, "-" + long]),
                      st.integers(-10, 10))

    @st.composite
    def mutated(draw, base, leaf):
        data = json.loads(json.dumps(base))
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["drop", "rename", "swap", "term", "term-drop", "extra", "repeat"]))
            items = data.get("terms")
            i = draw(st.integers(0, len(items) - 1)) if isinstance(items, list) and items else None
            if kind in ("drop", "rename", "swap") and data:
                key = draw(st.sampled_from(sorted(data)))
                if kind == "swap":
                    data[key] = draw(values)
                else:
                    value = data.pop(key)
                    if kind == "rename":
                        data[key + "s"] = value
            elif kind == "term-drop" and i is not None:
                del items[i]
            elif kind == "term" and i is not None:
                items[i] = draw(leaf(items[i]))
            elif kind in ("extra", "repeat") and i is not None:
                items.append(draw(leaf(items[i] if kind == "repeat" else None)))
        return data

    def recurrence_term(term):
        # a term with its exponent or coefficient changed; a repeat keeps the exponent
        if not isinstance(term, dict):
            return st.builds(lambda e, c: {"exp": [e], "coeff": c}, exps, texts)
        return st.one_of(st.builds(lambda e: {**term, "exp": [e]}, exps),
                         st.builds(lambda c: {**term, "coeff": c}, texts),
                         st.builds(lambda v: {**term, "exp": v}, values))

    files = {
        "rec-unroll-input": (["rec-unroll", "--n", "12", "--input"], mutated(recurrence, recurrence_term)),
        "rec-unroll-initial": (["rec-unroll", "--n", "12", "--initial"], mutated(sequence, lambda _: terms)),
        "guess-rec": (["guess-rec", "--n", "13", "--order", "2", "--degree", "1", "--input"],
                      mutated(sequence, lambda _: terms)),
    }
    bad = tmp_path / "file.json"

    @hypothesis.settings(max_examples=90, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.sampled_from(sorted(files)).flatmap(
        lambda name: st.tuples(st.just(files[name][0]), files[name][1])))
    def check(case):
        args, data = case
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli(args + [str(bad)], tmp_path)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert len(err.strip().splitlines()) == 1, err

    check()


def test_mutated_certificate_files_exit_cleanly(tmp_path, capsys):
    # a fresh certificate.json with keys dropped or renamed, types swapped (a list
    # nested 100 deep among them), "1/0" or a 5,000-digit coefficient in P, S or T,
    # and negative, huge or repeated exponents in P, through verify-cert in process
    # (which differentiates S and T): exit 0, 1 or 2, never a traceback, and an exit 2
    # prints one line.  Orders stay small or over their cap, so no case runs long.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from rookpaths.exactmath.mpoly import EXPONENT_CAP
    from rookpaths.ore import DEGREE_CAP, ORDER_CAP
    assert run_cli(["telescope"], tmp_path) == 0
    certificate = json.loads((tmp_path / "certificate.json").read_text())
    long = "9" * 5000  # past the 4,300-digit limit on integer text
    nested = json.loads("[" * 100 + "]" * 100)
    values = st.sampled_from([None, 0, -1, 1.5, True, "", "x", [], {}, ["x"], [["x"]], {"x": 1}, nested])
    values = values.map(copy.deepcopy)
    exps = st.sampled_from([-2, -1, 0, 1, 2, 3, ORDER_CAP + 1, EXPONENT_CAP + 1, 10 ** 30])
    texts = st.sampled_from(["1/0", "(1)/(0)", "(1)/(1*x^1 + -1*x^1)", "0", "", "x", "1*y^1", "1*x^1.5", "1*x^-1",
                             f"1*x^{DEGREE_CAP + 1}", f"1*t^{EXPONENT_CAP + 1}", long, f"{long}*s^1",
                             f"(1)/({long}*t^1)"])

    @st.composite
    def mutated(draw):
        data = copy.deepcopy(certificate)
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["drop", "rename", "swap", "side", "swap-sides", "P-key", "term-drop",
                                         "term-swap", "exp", "coeff", "repeat"]))
            op = data.get("P")
            terms = op.get("terms") if isinstance(op, dict) else None
            term = draw(st.sampled_from(terms)) if isinstance(terms, list) and terms else None
            if kind in ("drop", "rename", "swap") and data:
                key = draw(st.sampled_from(sorted(data)))
                if kind == "swap":
                    data[key] = draw(values)
                else:
                    value = data.pop(key)
                    if kind == "rename":
                        data[key + "s"] = value
            elif kind == "side":
                data[draw(st.sampled_from(["S", "T"]))] = draw(texts)
            elif kind == "swap-sides" and "S" in data and "T" in data:
                data["S"], data["T"] = data["T"], data["S"]
            elif kind == "P-key" and isinstance(op, dict) and op:
                op[draw(st.sampled_from(sorted(op)))] = draw(values)
            elif kind in ("term-drop", "term-swap") and isinstance(term, dict) and term:
                key = draw(st.sampled_from(sorted(term)))
                if kind == "term-swap":
                    term[key] = draw(values)
                else:
                    del term[key]
            elif kind == "exp" and isinstance(term, dict):
                term["exp"] = [draw(exps)]
            elif kind == "coeff" and isinstance(term, dict):
                term["coeff"] = draw(texts)
            elif kind == "repeat" and isinstance(term, dict):
                terms.append({**term, "coeff": draw(texts)})
        return data

    bad = tmp_path / "cert.json"

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutated())
    def check(data):
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = run_cli(["verify-cert", "--input", str(bad)], tmp_path)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert len(err.strip().splitlines()) == 1, err

    check()
