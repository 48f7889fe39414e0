"""Exact arithmetic kernel: rationals, sparse polynomials, rational functions,
truncated power series, and fraction-free linear algebra."""

from .mpoly import MPoly, frac_gcd, monomial_key, mpoly_gcd, mpoly_lcm, poly, resultant
from .ratfun import RatFun, ratfun
from .series import PowerSeries
from .linalg import clear_denominators, clear_vector, linear_nullspace

__all__ = [
    "MPoly",
    "frac_gcd",
    "monomial_key",
    "mpoly_gcd",
    "mpoly_lcm",
    "poly",
    "resultant",
    "RatFun",
    "ratfun",
    "PowerSeries",
    "clear_denominators",
    "clear_vector",
    "linear_nullspace",
]
