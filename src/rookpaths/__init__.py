"""rookpaths: exact-arithmetic toolkit for 3D rook path enumeration.

Counts lattice walks, extracts diagonals of rational generating functions,
finds and verifies creative-telescoping certificates, proves recurrences,
and certifies the hypergeometric closed form with its asymptotics.

The pipeline entry points re-exported here mirror the CLI; the submodules
(`exactmath`, `walks`, `diagonal`, `ore`, `telescope`, `hypergeom`) carry
the full surface, and `proof` holds the claim table that `prove-all` discharges.
"""

from .walks import ROOK, QUEEN, DirectionSet, SeqTable, count_paths, diagonal_sequence, \
    queens_dominant_root, step_generating_function
from .diagonal import expand_diagonal, residue_embedding
from .ore import DiffOp, RecOp, diffop_to_rec, guess_rec, prove_rec_reduction, rec_unroll
from .telescope import Ansatz, Certificate, ParamSystem, lipshitz_bounds, \
    solve_parametrized_system, stage_a_search, stage_b_search, stage_c_reconstruct, verify_key_equation
from .hypergeom import HypergeomSpec, asymptotics_check, closed_form_check, f21_series, \
    identity_checks, local_exponents, operator_pullback, pullback_search, \
    symbolic_solution_check

__version__ = "0.1.0"

__all__ = [
    "ROOK", "QUEEN", "DirectionSet", "SeqTable", "count_paths", "diagonal_sequence",
    "queens_dominant_root", "step_generating_function",
    "expand_diagonal", "residue_embedding",
    "DiffOp", "RecOp", "diffop_to_rec", "guess_rec", "prove_rec_reduction", "rec_unroll",
    "Ansatz", "Certificate", "ParamSystem", "lipshitz_bounds", "solve_parametrized_system",
    "stage_a_search", "stage_b_search", "stage_c_reconstruct", "verify_key_equation",
    "HypergeomSpec", "asymptotics_check", "closed_form_check", "f21_series",
    "identity_checks", "local_exponents", "operator_pullback", "pullback_search",
    "symbolic_solution_check",
    "__version__",
]
