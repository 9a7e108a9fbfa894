"""Three distinct unit fractions summing to 4/n.

Closed forms fixed by residue class, divisor/odd-k witness searches, and an
independent exhaustive oracle, composed into a verified solving pipeline
with range sweeps, checkpointing and CSV reports.
"""

from .core_arith import (
    INT128_MAX,
    INT128_MIN,
    CheckedOverflowError,
    Fraction,
    checked_add,
    checked_mul,
    divisors,
    factorize,
    is_prime,
    unit_sum,
)
from .triples import ConstructionError, Method, UnitTriple, make_triple
from .two_term import TwoTermSolution, enumerate_two_term, solve_two_term
from .construct_th2 import theorem2_dispatch
from .construct_th34 import (
    DEFAULT_K_BOUND,
    Th3Params,
    theorem3_search,
    theorem4_search,
)
from .oracle import (
    OracleBudgetError,
    enumerate_three_term,
    first_solution,
)
from .sweep import (
    SweepRecord,
    Status,
    classify_hard,
    emit_report,
    solve,
    sweep_range,
)

__version__ = "0.1.0"

__all__ = [
    "INT128_MAX",
    "INT128_MIN",
    "CheckedOverflowError",
    "ConstructionError",
    "DEFAULT_K_BOUND",
    "Fraction",
    "Method",
    "OracleBudgetError",
    "Status",
    "SweepRecord",
    "Th3Params",
    "TwoTermSolution",
    "UnitTriple",
    "checked_add",
    "checked_mul",
    "classify_hard",
    "divisors",
    "emit_report",
    "enumerate_three_term",
    "enumerate_two_term",
    "factorize",
    "first_solution",
    "is_prime",
    "make_triple",
    "solve",
    "solve_two_term",
    "sweep_range",
    "theorem2_dispatch",
    "theorem3_search",
    "theorem4_search",
    "unit_sum",
]
