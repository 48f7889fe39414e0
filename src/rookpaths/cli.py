"""Batch command-line frontend for the rook-path pipeline.

Every pipeline stage is a subcommand writing deterministic JSON/text
artifacts into the --out directory and printing a short report.  Exit code
0 means every requested check passed, 1 means some check failed, 2 means
the invocation or an input file was unusable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import rookdata
from .diagonal import expand_diagonal, residue_embedding
from .hypergeom import (GAP_CAP, HypergeomSpec, SING_POINTS, TRIED_TRIPLES, asymptotics_check, closed_form_check,
                        identity_checks, local_exponents, pullback_search, symbolic_solution_check)
from .numerics import decimal_str
from .ore import (DiffOp, NonIntegerTermError, RecOp, SingularRecurrenceError, diffop_to_rec, guess_rec,
                  prove_rec_reduction, rec_unroll)
from .proof import CLAIMS, discharge
# stage_a_search is not called here; it stays imported because the benchmark's
# wrapper check (perfbench/tests) expects every stage function at this site.
from .telescope import (Certificate, TelescopeError, lipshitz_bounds, stage_a_pair, stage_a_search,  # noqa: F401
                        stage_b_search, stage_c_reconstruct, verify_key_equation)
from .walks import QUEEN, ROOK, SeqTable, diagonal_sequence, queens_dominant_root, step_generating_function

MODELS = {"rook": ROOK, "queen": QUEEN}
# Caps on the size flags, checked before any work starts. On a 2-CPU Xeon the rook DP
# to n = 200 takes about 3 s and 50 MB (at n = 2600 it ran out of memory), each series
# check at order 100 under 1 s (identity-checks at 200, 24 s), asymptotics at
# n = 10000 under 1 s and 18 MB, and telescope at order 6 about 4 s and 27 MB (order
# 8, 25 s). guess-rec's default terms are the rook DP to --n - 1. A sequence file at
# the 4,300-digit parse limit (rec-unroll's output to about n = 2,380) is 5.1 MB.
TERMS_CAP, DIAG_CAP, UNROLL_CAP, MAX_DEGREE_CAP = 200, 100, 5000, 16
SERIES_CAP, ASYMPTOTICS_CAP, GUESS_CAP, TELESCOPE_CAP = 100, 10000, TERMS_CAP + 1, 6
INPUT_BYTES_CAP = 16 << 20
FILE_CAP = f", at most {INPUT_BYTES_CAP >> 20} MiB"


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        ok = args.func(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except TelescopeError as exc:  # a stage failed its own exact check
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rookpaths",
                                description="exact pipeline for 3D rook path counting")
    p.add_argument("--out", default="out", help="artifact output directory")
    sub = p.add_subparsers(dest="command")

    def cmd(name, fn, **extra):
        c = sub.add_parser(name, **extra)
        c.set_defaults(func=fn)
        return c

    c = cmd("rook-terms", _cmd_terms, help="diagonal rook counts from the DP oracle")
    c.add_argument("--n", type=int, default=8, help=f"last index, at most {TERMS_CAP}")
    c.set_defaults(model="rook")

    c = cmd("queen-terms", _cmd_terms, help="diagonal queen counts from the DP oracle")
    c.add_argument("--n", type=int, default=7, help=f"last index, at most {TERMS_CAP}")
    c.set_defaults(model="queen")

    c = cmd("diag", _cmd_diag, help="diagonal by trivariate series expansion")
    c.add_argument("--n", type=int, default=8, help=f"last index, at most {DIAG_CAP}")
    c.add_argument("--model", choices=MODELS, default="rook")

    c = cmd("step-gf", _cmd_step_gf, help="rational step generating function")
    c.add_argument("--model", choices=MODELS, default="rook")

    c = cmd("guess-rec", _cmd_guess_rec, help="guess recurrences from sequence terms")
    c.add_argument("--n", type=int, default=25, help=f"number of terms to use, at most {GUESS_CAP}")
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--degree", type=int, required=True)
    c.add_argument("--input", help=f"SeqTable JSON (default: rook DP terms){FILE_CAP}")

    c = cmd("rec-unroll", _cmd_rec_unroll, help="extend a sequence by a recurrence")
    c.add_argument("--n", type=int, required=True, help=f"last index, at most {UNROLL_CAP}")
    c.add_argument("--input", help=f"operator JSON (default: the order-3 recurrence){FILE_CAP}")
    c.add_argument("--initial", help=f"SeqTable JSON with initial terms{FILE_CAP}")

    c = cmd("ode-to-rec", _cmd_ode_to_rec, help="translate an ODE into a recurrence")
    c.add_argument("--input", help=f"operator JSON (default: the certified telescoper){FILE_CAP}")

    c = cmd("telescope", _cmd_telescope, help="creative-telescoping stages")
    c.add_argument("--stage", choices=["A", "B", "C", "all"], default="all")
    c.add_argument("--degree", type=int, default=3,
                   help=f"telescoper order for stage B, at most {TELESCOPE_CAP}")

    c = cmd("verify-cert", _cmd_verify_cert, help="re-verify a certificate file")
    c.add_argument("--input", required=True, help=f"certificate JSON{FILE_CAP}")

    cmd("prove-rec-reduction", _cmd_prove_reduction,
        help="prove the order-3 recurrence from the order-4 one")

    c = cmd("closed-form-check", _cmd_closed_form, help="series check of the closed form")
    c.add_argument("--n", type=int, default=30, help=f"series order, at least 1 and at most {SERIES_CAP}")

    c = cmd("pullback-search", _cmd_pullback, help="rational pullback search")
    c.add_argument("--max-degree", type=int, default=6, help=f"largest map degree, at most {MAX_DEGREE_CAP}")

    c = cmd("local-exponents", _cmd_local_exponents, help="singularity analysis")
    c.add_argument("--input", help=f"operator JSON (default: the closed-form operator){FILE_CAP}; "
                   f"an integer exponent gap over {GAP_CAP} is refused")

    c = cmd("identity-checks", _cmd_identities, help="series identity suite")
    c.add_argument("--order", type=int, default=30, help=f"series order, at least 1 and at most {SERIES_CAP}")

    c = cmd("asymptotics", _cmd_asymptotics, help="growth constant checks")
    c.add_argument("--n", type=int, default=2000, help=f"probe index, at most {ASYMPTOTICS_CAP}")
    c.add_argument("--tolerance", default="1/100")

    cmd("lipshitz-bounds", _cmd_lipshitz, help="counting-argument size report")
    cmd("queens-root", _cmd_queens_root, help="queens dominant singularity root")
    c = cmd("prove-all", _cmd_prove_all, help="full discovery-and-proof pipeline")
    c.add_argument("--truncation", type=int, default=30, help=f"series order, at least 1 and at most {SERIES_CAP}")
    return p


def _write(out: Path, name: str, text: str) -> None:
    (out / name).write_text(text if text.endswith("\n") else text + "\n")


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _in_range(value: int, low: int, flag: str, cap: float = float("inf")) -> int:
    if not low <= value <= cap:
        raise UsageError(f"{flag} must be >= {low}" if value < low else f"{flag} must be <= {cap}")
    return value


def _read_json(path: str):
    """An input file's parsed JSON and its text; over-cap (unread) or too deeply nested is an input error."""
    if Path(path).stat().st_size > INPUT_BYTES_CAP:
        raise ValueError(f"{path}: over the {INPUT_BYTES_CAP}-byte cap on input files")
    text = Path(path).read_text()
    try:
        return json.loads(text), text
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_seq(path: str | None, default_n: int) -> SeqTable:
    if path is None:
        return diagonal_sequence(ROOK, default_n)
    return SeqTable.from_json_dict(_read_json(path)[0])


# -- commands ----------------------------------------------------------------


def _cmd_terms(args, out: Path) -> bool:
    seq = diagonal_sequence(MODELS[args.model], _in_range(args.n, 0, "--n", TERMS_CAP))
    _write(out, f"{args.model}-terms.json", seq.to_json())
    print(f"{args.model} diagonal terms a_0..a_{args.n}:")
    print(" ", ", ".join(str(t) for t in seq.terms))
    return True


def _cmd_diag(args, out: Path) -> bool:
    gf = step_generating_function(MODELS[args.model])
    seq = expand_diagonal(gf, _in_range(args.n, 0, "--n", DIAG_CAP), name=f"{args.model}-diagonal")
    _write(out, f"{args.model}-diag-series.json", seq.to_json())
    oracle = diagonal_sequence(MODELS[args.model], args.n)
    ok = seq.terms == oracle.terms
    print(f"series diagonal vs DP oracle up to n={args.n}: {'PASS' if ok else 'FAIL'}")
    return ok


def _cmd_step_gf(args, out: Path) -> bool:
    gf = step_generating_function(MODELS[args.model])
    _write(out, f"{args.model}-step-gf.txt", gf.text())
    print(f"{args.model} step generating function:")
    print(" ", gf.text())
    return True


def _cmd_guess_rec(args, out: Path) -> bool:
    _in_range(args.n, 1, "--n", GUESS_CAP)
    _in_range(args.order, 0, "--order")
    _in_range(args.degree, 0, "--degree")
    seq = _load_seq(args.input, args.n - 1)
    seq = SeqTable(seq.name, seq.terms[: args.n], seq.provenance)
    found = guess_rec(seq, args.order, args.degree)
    data = [op.to_json_dict() for op in found]
    _write(out, "guessed-recurrences.json", _dump_json(data))
    print(f"recurrences of order <= {args.order}, degree <= {args.degree} "
          f"annihilating {len(seq)} terms: {len(found)}")
    for op in found:
        print(" ", repr(op))
    return True


def _cmd_rec_unroll(args, out: Path) -> bool:
    _in_range(args.n, 0, "--n", UNROLL_CAP)
    rec = RecOp.from_json_dict(_read_json(args.input)[0]) if args.input else rookdata.recurrence_order3()
    initial = _load_seq(args.initial, 2)
    try:
        seq = rec_unroll(rec, initial, args.n)
    except (SingularRecurrenceError, NonIntegerTermError) as exc:
        files = [f for f in (args.input, args.initial) if f]
        if not files:
            raise  # the built-in recurrence and terms: a transcription bug
        what = "leading coefficient vanishes" if isinstance(exc, SingularRecurrenceError) else "non-integer term"
        raise ValueError(f"{' with '.join(files)}: unrolling stops, {what} at n={exc.index}") from None
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the terms may pass the digit limit; input parsing keeps it
    try:
        _write(out, "unrolled.json", seq.to_json())
        print(f"unrolled to n={args.n}; a_{args.n} = {seq[args.n]}")
    finally:
        sys.set_int_max_str_digits(limit)
    return True


def _cmd_ode_to_rec(args, out: Path) -> bool:
    op = DiffOp.from_json_dict(_read_json(args.input)[0]) if args.input else rookdata.operator_p2_dx()
    rec = diffop_to_rec(op)
    _write(out, "recurrence.json", _dump_json(rec.to_json_dict()))
    print("translated recurrence:")
    print(" ", repr(rec))
    return True


def _cmd_telescope(args, out: Path) -> bool:
    _in_range(args.degree, 0, "--degree", TELESCOPE_CAP)
    F = residue_embedding(step_generating_function(ROOK))
    certs = stage_a_pair(F)
    print("stage A: two certificates found and verified")
    for i, cert in enumerate(certs, 1):
        _write(out, f"stage-a-operator-{i}.json", _dump_json(cert.operator.to_json_dict()))
        _write(out, f"stage-a-phi-{i}.txt", cert.phi.text())
    if args.stage == "A":
        return True
    result = stage_b_search(certs[0].operator, certs[1].operator, args.degree)
    if result is None:
        print(f"stage B: no telescoper at order {args.degree}")
        return args.stage == "B"
    P, Q = result
    print(f"stage B: telescoper of order {args.degree} found")
    _write(out, "stage-b-P.json", _dump_json(P.to_json_dict()))
    _write(out, "stage-b-Q.json", _dump_json(Q.to_json_dict()))
    if args.stage == "B":
        return True
    cert = stage_c_reconstruct(P, Q, certs, F)
    _write(out, "certificate.json", _dump_json(cert.to_json_dict()))
    print(f"stage C: certificate reconstructed; key equation "
          f"{'PASS' if cert.verified else 'FAIL'}")
    return cert.verified


def _cmd_verify_cert(args, out: Path) -> bool:
    """The key equation against the computed embedding, and the round trip of what was read;
    the file's "verified" field is re-emitted, never trusted."""
    data, raw = _read_json(args.input)
    cert = Certificate.from_json_dict(data)
    report = verify_key_equation(cert, residue_embedding(step_generating_function(ROOK)))
    reemitted = _dump_json(cert.to_json_dict())
    bit_exact = reemitted == raw or reemitted.strip() == raw.strip()
    print(f"key equation: {report}")
    print(f"re-emission bit-exact: {'yes' if bit_exact else 'no'}")
    return report.passed and bit_exact


def _cmd_prove_reduction(args, out: Path) -> bool:
    report = prove_rec_reduction(rookdata.recurrence_order4(), rookdata.recurrence_order3(),
                                 rookdata.reduction_multiplier(), rookdata.reduction_cofactor())
    print(f"order reduction: {report}")
    print(f"recorded initial-condition combination: {rookdata.reduction_base_combination()}")
    return report.passed


def _cmd_closed_form(args, out: Path) -> bool:
    series_report = closed_form_check(_in_range(args.n, 1, "--n", SERIES_CAP))
    spec = HypergeomSpec(*rookdata.closed_form_parameters())
    symbolic = symbolic_solution_check(rookdata.operator_p2(), rookdata.closed_form_prefactor(),
                                       spec, rookdata.closed_form_pullback())
    print(f"series check to n={args.n}: {series_report}")
    print(f"symbolic check: {symbolic}")
    _write(out, "closed-form-report.json", _dump_json([
        series_report.to_json_dict(),
        {"check": "closed-form-symbolic", "status": "PASS" if symbolic.passed else "FAIL",
         "detail": "operator applied to prefactor * 2F1(pullback)"},
    ]))
    return series_report.passed and symbolic.passed


def _cmd_pullback(args, out: Path) -> bool:
    _in_range(args.max_degree, 1, "--max-degree", MAX_DEGREE_CAP)
    candidates = []
    for triple in TRIED_TRIPLES:
        candidates = pullback_search(SING_POINTS, triple, args.max_degree)
        print(f"exponent-difference triple {tuple(str(e) for e in triple)}: "
              f"{len(candidates)} candidate(s)")
        if candidates:
            break
    data = []
    for c in candidates:
        data.append({
            "exponents": {str(p): e for p, e in sorted(c.exponents.items())},
            "constant": str(c.constant),
            "map": c.map.text(),
            "simplified_map": c.simplified_map().text(),
        })
    _write(out, "pullback-candidates.json", _dump_json(data))
    print(f"candidates at degree <= {args.max_degree}: {len(candidates)}")
    for c in candidates:
        print(f"  exponents {c.exponent_tuple()} constant {c.constant}")
        print(f"    map {c.map.text()}")
        print(f"    simplified {c.simplified_map().text()}")
    return bool(candidates)


def _cmd_local_exponents(args, out: Path) -> bool:
    op = DiffOp.from_json_dict(_read_json(args.input)[0]) if args.input else rookdata.operator_p2()
    report = local_exponents(op)
    rows = []
    for p in report.points:
        rows.append({"location": str(p.location),
                     "exponents": [str(e) for e in p.exponents],
                     "difference": str(p.exponent_difference),
                     "class": p.klass})
        print(f"  x = {p.location}: exponents {p.exponents[0]}, {p.exponents[1]} "
              f"(difference {p.exponent_difference}) -> {p.klass}")
    _write(out, "local-exponents.json", _dump_json(rows))
    return True


def _cmd_identities(args, out: Path) -> bool:
    reports = identity_checks(_in_range(args.order, 1, "--order", SERIES_CAP))
    _write(out, "identity-checks.json", _dump_json([r.to_json_dict() for r in reports]))
    ok = True
    for r in reports:
        print(" ", r)
        ok = ok and r.passed
    return ok


def _cmd_asymptotics(args, out: Path) -> bool:
    try:
        tol = Fraction(args.tolerance)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--tolerance must be a rational number, got {args.tolerance!r}") from None
    if tol <= 0:
        raise UsageError("--tolerance must be > 0")
    report = asymptotics_check(_in_range(args.n, 100, "--n", ASYMPTOTICS_CAP), tol)
    for line in report.lines():
        print(" ", line)
    _write(out, "asymptotics.json", _dump_json({
        "check": "asymptotics", "status": "PASS" if report.passed() else "FAIL",
        "n_probe": report.n_probe,
        "detail": f"relative error {decimal_str(report.ratio_error, 8)}",
    }))
    return report.passed()


def _cmd_lipshitz(args, out: Path) -> bool:
    report = lipshitz_bounds()
    for line in report.lines():
        print(" ", line)
    _write(out, "lipshitz-bounds.json", _dump_json(report.to_json_dict()))
    return True


def _cmd_queens_root(args, out: Path) -> bool:
    report = queens_dominant_root()
    c = report.normalized_root
    print(f"  verbatim reading root: "
          f"{decimal_str(report.verbatim_root, 12) if report.verbatim_root is not None else 'none in (0,1)'}")
    print(f"  normalized reading: c = {decimal_str(c, 12)}")
    print(f"  c^3 = {decimal_str(report.normalized_root_cubed, 12)}")
    print(f"  note: {report.note}")
    _write(out, "queens-root.json", _dump_json({
        "verbatim_root": decimal_str(report.verbatim_root, 14) if report.verbatim_root is not None else None,
        "normalized_root": decimal_str(c, 14),
        "normalized_root_cubed": decimal_str(report.normalized_root_cubed, 14),
        "note": report.note,
    }))
    return True


def _cmd_prove_all(args, out: Path) -> bool:
    verdicts = []
    for name, ok, consumed in discharge(_in_range(args.truncation, 1, "--truncation", SERIES_CAP)):
        if "stage-C certificate" in consumed:
            _write(out, "certificate.json", _dump_json(consumed["stage-C certificate"].to_json_dict()))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        verdicts.append(ok)
    if len(verdicts) < len(CLAIMS):  # stage B found no telescoper: no summary
        return False
    ok = all(verdicts)
    print(f"prove-all: {'PASS' if ok else 'FAIL'} ({sum(verdicts)}/{len(verdicts)})")
    return ok


if __name__ == "__main__":
    sys.exit(main())
