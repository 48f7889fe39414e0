"""The claim table of prove-all: its claims, what each consumes, and how a run stops."""

import hashlib

from rookpaths import proof, telescope
from rookpaths.cli import main
from rookpaths.exactmath import MPoly, linalg
from rookpaths.ore import IdentityReport

CERTIFICATE_SHA256 = "27e7212f5b006ccd5fc81d474add7f943418901cd27799000822e2aa696aa422"


def test_claims_and_what_each_consumes_are_pinned():
    assert [(name, consumes) for name, consumes, _ in proof.CLAIMS] == [
        ("rook diagonal terms (DP)", ("rook DP",)),
        ("queen diagonal terms (DP)", ("queen DP",)),
        ("residue embedding matches the factored reference form", ("F", "reference F")),
        ("stage A certificates verified", ("stage-A pair", "F")),
        ("stage B telescoper at order 3", ("stage-B result",)),
        ("stage C key equation", ("stage-C certificate",)),
        ("telescoper recurrence matches the order-4 form", ("order-4 recurrence", "reference order-4")),
        ("order-4 recurrence reproduces DP terms to n=40", ("order-4 recurrence", "rook DP")),
        ("order-3 recurrence guessed from 25 terms", ("rook DP", "reference order-3")),
        ("order reduction proof", ("reference order-4", "reference order-3", "multiplier", "cofactor", "rook DP")),
        ("closed form (symbolic proof)", ("P2", "prefactor", "parameters", "map")),
        ("closed form (series check)", ("truncation", "rook DP")),
        ("identity: contiguity", ("identity reports",)),
        ("identity: quartic-pullback", ("identity reports",)),
        ("identity: alternative-form", ("identity reports",)),
        ("asymptotics", ("rook DP",)),
    ]
    # every name a claim or an object consumes is built by exactly one rule
    names = {"truncation"} | set(proof.OBJECTS) | set(proof.PREMISES)
    assert len(names) == 1 + len(proof.OBJECTS) + len(proof.PREMISES)
    consumed = {c for _, consumes, _ in proof.CLAIMS for c in consumes}
    consumed |= {c for inputs, _ in proof.OBJECTS.values() for c in inputs}
    assert consumed == names


def test_one_failing_claim_fails_alone(tmp_path, capsys, monkeypatch):
    # the symbolic closed-form proof fails: its line alone, and the certificate is still written
    monkeypatch.setattr(proof, "symbolic_solution_check", lambda L, pre, spec, f: IdentityReport(False, L, "patched"))
    assert main(["--out", str(tmp_path), "prove-all"]) == 1
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if not line.startswith("[PASS]")]
    assert failed == ["[FAIL] closed form (symbolic proof)", "prove-all: FAIL (15/16)"] and err == ""
    assert hashlib.sha256((tmp_path / "certificate.json").read_bytes()).hexdigest() == CERTIFICATE_SHA256


def test_no_telescoper_stops_after_the_stage_b_claim(tmp_path, capsys, monkeypatch):
    # no claim after stage B runs: no summary line and no certificate
    monkeypatch.setattr(proof, "stage_b_search", lambda P1, P2, d: None)
    assert main(["--out", str(tmp_path), "prove-all"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"[PASS] {name}" for name, _, _ in proof.CLAIMS[:4]] + [
        "[FAIL] stage B telescoper at order 3"]
    assert err == "" and not (tmp_path / "certificate.json").exists()


def test_each_object_is_built_once_and_only_when_consumed(monkeypatch):
    # the run is lazy: stopping after the first claim builds the rook DP and nothing else
    built = []
    objects = {name: (inputs, lambda *a, name=name, build=build: built.append(name) or build(*a))
               for name, (inputs, build) in proof.OBJECTS.items()}
    monkeypatch.setattr(proof, "OBJECTS", objects)
    run = proof.discharge(30)
    assert next(run)[:2] == ("rook diagonal terms (DP)", True)
    assert built == ["rook DP"]
    assert [verdict for _, verdict, _ in run] == [True] * 15
    assert sorted(built) == sorted(objects)


def test_the_rook_kernels_come_from_integer_images(tmp_path, monkeypatch):
    # stage A's two systems over Q[x, s] and stage B's over Q[x] are the only polynomial
    # matrices, and the elimination over MPoly gets none of them
    polynomial, eliminated = [], []
    nullspace, kernel = telescope.linear_nullspace, linalg._kernel
    monkeypatch.setattr(telescope, "linear_nullspace",
                        lambda m: polynomial.append(isinstance(m[0][0], MPoly)) or nullspace(m))
    monkeypatch.setattr(linalg, "_kernel", lambda rows, ncols, one, *rest: eliminated.append(
        isinstance(one, MPoly)) or kernel(rows, ncols, one, *rest))
    assert main(["--out", str(tmp_path), "prove-all"]) == 0
    assert polynomial.count(True) == 3 and eliminated and not any(eliminated)
