"""Exact arithmetic kernel: rationals, sparse polynomials, rational functions,
truncated power series, and fraction-free linear algebra."""

from .mpoly import MPoly, frac_gcd, monomial_key, mpoly_gcd, mpoly_lcm, multiplicity, poly
from .ratfun import RatFun, ratfun
from .series import PowerSeries
from .linalg import clear_denominators, linear_nullspace, root_values, strip_content

__all__ = [
    "MPoly",
    "frac_gcd",
    "monomial_key",
    "mpoly_gcd",
    "mpoly_lcm",
    "multiplicity",
    "poly",
    "RatFun",
    "ratfun",
    "PowerSeries",
    "clear_denominators",
    "linear_nullspace",
    "root_values",
    "strip_content",
]
