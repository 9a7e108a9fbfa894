"""Three distinct unit fractions summing to 4/n.

Constructive residue-class paths, divisor/odd-k witness searches, and an
independent exhaustive oracle, composed into a verified solving pipeline
with range sweeps, checkpointing and CSV/JSON reports.
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
    gcd,
    is_prime,
    primes_up_to,
    unit_sum,
)
from .triples import ConstructionError, Method, UnitTriple, make_triple
from .two_term import TwoTermSolution, enumerate_two_term, solve_two_term
from .construct_th2 import (
    lift_by_cofactor,
    path_3mod4,
    path_even,
    path_mod3_0,
    path_mod3_2,
    path_prime_13mod24,
    theorem2_dispatch,
)
from .construct_th34 import (
    DEFAULT_K_BOUND,
    HypothesisViolation,
    Th3Params,
    theorem3_construct,
    theorem3_search,
    theorem4_construct,
    theorem4_search,
)
from .oracle import (
    OracleBudgetError,
    OracleQuery,
    count_solutions,
    enumerate_three_term,
    enumerate_three_term_naive,
    first_solution,
)
from .sweep import (
    SweepConfig,
    SweepRecord,
    Status,
    classify_hard,
    emit_report,
    load_report,
    method_histogram,
    record_from_obj,
    record_to_obj,
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
    "HypothesisViolation",
    "Method",
    "OracleBudgetError",
    "OracleQuery",
    "Status",
    "SweepConfig",
    "SweepRecord",
    "Th3Params",
    "TwoTermSolution",
    "UnitTriple",
    "checked_add",
    "checked_mul",
    "classify_hard",
    "count_solutions",
    "divisors",
    "emit_report",
    "enumerate_three_term",
    "enumerate_three_term_naive",
    "enumerate_two_term",
    "factorize",
    "first_solution",
    "gcd",
    "is_prime",
    "lift_by_cofactor",
    "load_report",
    "make_triple",
    "method_histogram",
    "path_3mod4",
    "path_even",
    "path_mod3_0",
    "path_mod3_2",
    "path_prime_13mod24",
    "primes_up_to",
    "record_from_obj",
    "record_to_obj",
    "solve",
    "solve_two_term",
    "sweep_range",
    "theorem2_dispatch",
    "theorem3_construct",
    "theorem3_search",
    "theorem4_construct",
    "theorem4_search",
    "unit_sum",
]
