"""The benchmark workloads and the gates that check their answers.

A workload is a set-up step (the fixed inputs a user of the CLI builds on
every run) and a list of named operations.  Each operation runs a public
rookpaths entry point and raises GateError when the answer differs from the
values pinned in data/pinned.json.  Functions are looked up through their
modules at call time, so wrappers installed by tracer.py are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "pinned.json"
WORKLOADS = ("prove", "pullback", "refute", "series")

# The series workload may vary its sizes by seed, within a narrow band, so
# that the cost stays the same to well under one percent.
UNROLL_BASE = 1000
UNROLL_BAND = 8
ASYMPTOTICS_BASE = 5000
ASYMPTOTICS_STEP = 2


class GateError(AssertionError):
    """An operation returned a wrong answer."""


def load_pinned() -> dict:
    return json.loads(DATA.read_text())


def series_sizes(seed: int) -> dict:
    k = seed % UNROLL_BAND
    return {"unroll_n": UNROLL_BASE + k, "asymptotics_n": ASYMPTOTICS_BASE + ASYMPTOTICS_STEP * k}


def terms_digest(terms) -> str:
    return hashlib.sha256(",".join(str(t) for t in terms).encode()).hexdigest()


def candidate_rows(candidates) -> list[dict]:
    """The pullback candidates as text, in the form the CLI writes them."""
    return [{"exponents": {str(p): e for p, e in sorted(c.exponents.items())},
             "constant": str(c.constant),
             "map": c.map.text(),
             "simplified_map": c.simplified_map().text()} for c in candidates]


def triple_key(triple) -> str:
    return ",".join(str(Fraction(e)) for e in triple)


# -- gates -------------------------------------------------------------------


def check_prove(rc: int, report: str, certificate: bytes, pinned: dict) -> None:
    passes = report.count("[PASS]")
    if rc != 0 or "[FAIL]" in report or passes != pinned["prove_checks"]:
        raise GateError(f"prove-all: exit {rc}, {passes}/{pinned['prove_checks']} checks passed")
    digest = hashlib.sha256(certificate).hexdigest()
    if digest != pinned["certificate_sha256"]:
        raise GateError(f"certificate.json sha256 {digest} differs from the pinned digest")


def check_pullback(key: str, rows: list[dict], pinned: dict) -> None:
    want = pinned["pullback"][key]
    if rows != want:
        raise GateError(f"triple ({key}): {len(rows)} candidate(s) differ from the "
                        f"{len(want)} pinned, by text or order")


def check_equal(what: str, got, want) -> None:
    if got != want:
        raise GateError(f"{what}: got {got!r}, expected {want!r}")


def check_passed(what: str, reports) -> None:
    bad = [str(r) for r in reports if not r.passed]
    if bad:
        raise GateError(f"{what}: {bad}")


# -- set-up and operations -----------------------------------------------------


def setup(workload: str, seed: int, scratch: Path) -> dict:
    """Import the program and build the workload's fixed inputs."""
    import rookpaths  # noqa: F401  (imports every layer)
    from rookpaths import cli, rookdata

    inputs = {"pinned": load_pinned(), "scratch": scratch}
    if workload == "prove":
        inputs["cli"] = cli
    elif workload == "pullback":
        from rookpaths import hypergeom
        inputs["triples"] = hypergeom.TRIED_TRIPLES
        inputs["points"] = hypergeom.SING_POINTS
    elif workload == "refute":
        from rookpaths.ore import DiffOp
        inputs["F"] = rookdata.embedded_f()
        inputs["P1"], inputs["P2"] = (DiffOp.from_json_dict(d)
                                      for d in inputs["pinned"]["stage_a_operators"])
    elif workload == "series":
        from rookpaths.walks import QUEEN, ROOK, step_generating_function
        inputs.update(series_sizes(seed))
        inputs["rook_gf"] = step_generating_function(ROOK)
        inputs["queen_gf"] = step_generating_function(QUEEN)
        inputs["order3"] = rookdata.recurrence_order3()
        inputs["order4"] = rookdata.recurrence_order4()
        inputs["p2_dx"] = rookdata.operator_p2_dx()
        inputs["multiplier"] = rookdata.reduction_multiplier()
        inputs["cofactor"] = rookdata.reduction_cofactor()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def operations(workload: str, inputs: dict) -> list[tuple[str, callable]]:
    """(name, thunk) pairs; each thunk raises GateError on a wrong answer."""
    return {"prove": _prove_ops, "pullback": _pullback_ops, "refute": _refute_ops,
            "series": _series_ops}[workload](inputs)


def _prove_ops(inp: dict):
    def prove_all():
        with tempfile.TemporaryDirectory(dir=inp["scratch"]) as tmp:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = inp["cli"].main(["--out", tmp, "prove-all"])
            check_prove(rc, buf.getvalue(), (Path(tmp) / "certificate.json").read_bytes(),
                        inp["pinned"])
    return [("prove-all", prove_all)]


def _pullback_ops(inp: dict):
    from rookpaths import hypergeom

    def search(triple):
        def op():
            found = hypergeom.pullback_search(inp["points"], triple, 6)
            check_pullback(triple_key(triple), candidate_rows(found), inp["pinned"])
        return op
    return [(f"pullback({triple_key(t)})", search(t)) for t in inp["triples"]]


def _refute_ops(inp: dict):
    """The two searches that must come back empty: stage A at order 0 and
    stage B at order 2, on the stage-A operators captured in data/pinned.json."""
    from rookpaths import telescope

    def stage_a():
        check_equal("stage A certificates at order 0", telescope.stage_a_search(inp["F"], 0), [])

    def stage_b():
        check_equal("stage B telescoper at order 2",
                    telescope.stage_b_search(inp["P1"], inp["P2"], 2), None)
    return [("stage_a_search(F, 0)", stage_a), ("stage_b_search(P1, P2, 2)", stage_b)]


def _series_ops(inp: dict):
    from rookpaths import diagonal, hypergeom, ore, walks
    pinned = inp["pinned"]
    rook, queen = pinned["rook_terms"], pinned["queen_terms"]

    def dp():
        check_equal("rook DP terms", walks.diagonal_sequence(walks.ROOK, 40).terms, rook)
        check_equal("queen DP terms", walks.diagonal_sequence(walks.QUEEN, 12).terms, queen)

    def expand():
        check_equal("rook series diagonal", diagonal.expand_diagonal(inp["rook_gf"], 16).terms,
                    rook[:17])
        check_equal("queen series diagonal", diagonal.expand_diagonal(inp["queen_gf"], 10).terms,
                    queen[:11])

    def guess():
        seq = walks.SeqTable("rook", rook[:25], "dp")
        check_equal("guessed order-3 recurrences", ore.guess_rec(seq, 3, 4),
                    [inp["order3"].normalized()])

    def unroll():
        n = inp["unroll_n"]
        seq = ore.rec_unroll(inp["order3"], walks.SeqTable("rook", rook[:3], "dp"), n)
        check_equal("unrolled terms to n=40", seq.terms[:41], rook)
        check_equal(f"unrolled terms digest to n={n}", terms_digest(seq.terms),
                    pinned["rec_unroll_sha256"][str(n)])

    def ode_to_rec():
        check_equal("recurrence of P2 d_x", ore.diffop_to_rec(inp["p2_dx"]),
                    inp["order4"].normalized())

    def reduction():
        check_passed("order reduction", [ore.prove_rec_reduction(
            inp["order4"], inp["order3"], inp["multiplier"], inp["cofactor"])])

    def closed_form():
        check_passed("closed form", [hypergeom.closed_form_check(60)])

    def identities():
        check_passed("identities", hypergeom.identity_checks(60))

    def asymptotics():
        n = inp["asymptotics_n"]
        report = hypergeom.asymptotics_check(n)
        if not report.passed():
            raise GateError(f"asymptotics at n={n}: {report.lines()}")

    return [("dp", dp), ("expand_diagonal", expand), ("guess_rec", guess),
            ("rec_unroll", unroll), ("diffop_to_rec", ode_to_rec), ("rec_reduction", reduction),
            ("closed_form_check", closed_form), ("identity_checks", identities),
            ("asymptotics_check", asymptotics)]
