"""The claims of `prove-all` in the order they are discharged, with the objects each consumes.

A claim is (name, the names of the objects it consumes, check); the check gets those objects
alone, in that order, and returns True or False. Each object is built when a claim first asks
for it, at most once per run. Functions are looked up in this module's globals at call time, so
rebinding one here (a test's patch, the benchmark's tracer) reaches every claim that calls it.
"""

from __future__ import annotations

from . import rookdata
from .diagonal import residue_embedding
from .hypergeom import HypergeomSpec, asymptotics_check, closed_form_check, identity_checks, symbolic_solution_check
from .ore import diffop_to_rec, guess_rec, prove_rec_reduction, rec_unroll
from .telescope import stage_a_pair, stage_b_search, stage_c_reconstruct
from .walks import QUEEN, ROOK, SeqTable, diagonal_sequence, step_generating_function

# name -> the rookdata function that transcribes it from the paper
PREMISES = {
    "reference F": "embedded_f", "reference order-4": "recurrence_order4", "reference order-3": "recurrence_order3",
    "multiplier": "reduction_multiplier", "cofactor": "reduction_cofactor", "P2": "operator_p2",
    "prefactor": "closed_form_prefactor", "parameters": "closed_form_parameters", "map": "closed_form_pullback",
}
# name -> (the objects it is built from, builder)
OBJECTS = {
    "rook DP": (("truncation",), lambda n: diagonal_sequence(ROOK, max(40, n))),  # each rook claim reads a prefix
    "queen DP": ((), lambda: diagonal_sequence(QUEEN, 7)),
    "F": ((), lambda: residue_embedding(step_generating_function(ROOK))),
    "stage-A pair": (("F",), lambda F: stage_a_pair(F)),
    "stage-B result": (("stage-A pair",), lambda certs: stage_b_search(certs[0].operator, certs[1].operator, 3)),
    "stage-C certificate": (("stage-B result", "stage-A pair", "F"),
                            lambda PQ, certs, F: stage_c_reconstruct(PQ[0], PQ[1], certs, F)),
    "order-4 recurrence": (("stage-B result",), lambda PQ: diffop_to_rec(PQ[0])),
    "identity reports": (("truncation", "rook DP"),
                         lambda n, dp: {r.check: r for r in identity_checks(n, min(n, 25), dp)}),
}
CLAIMS = (
    ("rook diagonal terms (DP)", ("rook DP",), lambda dp: dp.terms[:9] == [
        1, 6, 222, 9918, 486924, 25267236, 1359631776, 75059524392, 4223303759148]),
    ("queen diagonal terms (DP)", ("queen DP",), lambda dp: dp.terms == [
        1, 13, 638, 41476, 3015296, 232878412, 18691183682, 1540840801552]),
    ("residue embedding matches the factored reference form", ("F", "reference F"), lambda F, ref: F == ref),
    ("stage A certificates verified", ("stage-A pair", "F"),
     lambda certs, F: all(c.verify(F).passed for c in certs)),
    ("stage B telescoper at order 3", ("stage-B result",), lambda PQ: PQ is not None),
    ("stage C key equation", ("stage-C certificate",), lambda cert: cert.verified),
    ("telescoper recurrence matches the order-4 form", ("order-4 recurrence", "reference order-4"),
     lambda rec, ref: rec == ref.normalized()),
    ("order-4 recurrence reproduces DP terms to n=40", ("order-4 recurrence", "rook DP"),
     lambda rec, dp: rec_unroll(rec, SeqTable("rook", dp.terms[:4], "dp"), 40).terms == dp.terms[:41]),
    ("order-3 recurrence guessed from 25 terms", ("rook DP", "reference order-3"),
     lambda dp, ref: guess_rec(SeqTable("rook", dp.terms[:25], "dp"), 3, 4) == [ref.normalized()]),
    ("order reduction proof", ("reference order-4", "reference order-3", "multiplier", "cofactor", "rook DP"),
     lambda big, small, m, c, dp: prove_rec_reduction(big, small, m, c, dp).passed),
    ("closed form (symbolic proof)", ("P2", "prefactor", "parameters", "map"),
     lambda L, pre, params, f: symbolic_solution_check(L, pre, HypergeomSpec(*params), f).passed),
    ("closed form (series check)", ("truncation", "rook DP"), lambda n, dp: closed_form_check(n, dp).passed),
    ("identity: contiguity", ("identity reports",), lambda reports: reports["contiguity"].passed),
    ("identity: quartic-pullback", ("identity reports",), lambda reports: reports["quartic-pullback"].passed),
    ("identity: alternative-form", ("identity reports",), lambda reports: reports["alternative-form"].passed),
    ("asymptotics", ("rook DP",), lambda dp: asymptotics_check(2000, terms=dp).passed()),
)


def discharge(truncation: int):
    """Yield (claim name, verdict, {name: object} it consumed) for each claim in order; a consumed
    object that is None (stage B found no telescoper) ends the run after that claim."""
    built = {"truncation": truncation}

    def get(name):
        if name not in built:
            inputs, build = OBJECTS[name] if name in OBJECTS else ((), getattr(rookdata, PREMISES[name]))
            built[name] = build(*map(get, inputs))
        return built[name]

    for name, consumes, check in CLAIMS:
        objects = [get(c) for c in consumes]
        yield name, check(*objects), dict(zip(consumes, objects))
        if any(o is None for o in objects):
            return
