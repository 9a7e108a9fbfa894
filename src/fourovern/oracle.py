"""Exhaustive enumeration of a/n = 1/x + 1/y + 1/z, independent ground truth.

Deliberately shares nothing with the constructive modules beyond basic
arithmetic, so it can falsify them.  For each x in the exact window
n/a < x <= 3n/a the residual reduces to p/q, and every completion
1/y + 1/z = p/q corresponds via (p*y - q)(p*z - q) = q*q to a divisor
d <= q of q*q with d = -q (mod p).  Work is therefore bounded by divisor
counts rather than magnitudes.

The tests cross-check it at small n against a second, independent
implementation: the quadratic double loop over x and y in tests/naive.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _math_gcd

from .core_arith import checked_mul
from .triples import Method, UnitTriple, make_triple


class OracleBudgetError(RuntimeError):
    """The configured work budget for one query was exhausted."""


@dataclass(frozen=True)
class OracleQuery:
    """One enumeration request.

    Targets with a/n > 3 (or beyond what three distinct unit fractions can
    reach) simply produce an empty window, so they return [] rather than
    raising.
    """

    a: int
    n: int
    distinct_only: bool = True
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.a < 1 or self.n < 1:
            raise ValueError(f"a and n must be positive, got ({self.a}, {self.n})")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be positive when given, got {self.limit}")


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, budget: int | None) -> None:
        self.remaining = budget

    def spend(self, amount: int) -> None:
        if self.remaining is None:
            return
        self.remaining -= amount
        if self.remaining < 0:
            raise OracleBudgetError("oracle work budget exhausted")


def _factor_counted(m: int, budget: _Budget, exponents: dict[int, int]) -> dict[int, int]:
    # Trial division by 2, then odd d, adding m's exponent of each prime to
    # exponents.  Local (not the cached core factorizer or its sieve) so the
    # budget sees every division attempt and nothing grows with m.
    d = 2
    while d * d <= m:
        budget.spend(1)
        while m % d == 0:
            m //= d
            exponents[d] = exponents.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if m > 1:
        exponents[m] = exponents.get(m, 0) + 1
    return exponents


def _divisors_of_square(exponents: dict[int, int], g: int, budget: _Budget) -> list[int]:
    """Sorted divisors of q*q, where q is the product of p**e over exponents,
    divided by g."""
    divs = [1]
    for p, e in exponents.items():
        while g % p == 0:
            g //= p
            e -= 1
        grown = []
        pk = 1
        for _ in range(2 * e + 1):
            for d in divs:
                grown.append(d * pk)
            pk *= p
        divs = grown
    budget.spend(len(divs))
    divs.sort()
    return divs


def _completions(p: int, q: int, divisors: list[int], xmin: int, strict: bool):
    """Yield (y, z), y ascending, with 1/y + 1/z == p/q and y >= xmin.

    gcd(p, q) == 1 is assumed, and divisors are the sorted divisors of q*q.
    d runs over those with d = -q (mod p) and d <= q, giving y = (d + q)/p
    and z = (q*q/d + q)/p; the cofactor side is automatically congruent, so
    z is always integral.
    """
    qq = checked_mul(q, q)
    for d in divisors:
        if d > q or (strict and d == q):
            break
        if (d + q) % p:
            continue
        y = (d + q) // p
        if y < xmin or (strict and y == xmin):
            continue
        z = (qq // d + q) // p
        yield y, z


def enumerate_three_term(query: OracleQuery, *, budget: int | None = None) -> list[UnitTriple]:
    """All triples x <= y <= z (strict when distinct_only) summing to a/n.

    Lexicographic order, truncated at query.limit.  The window on the
    smallest part is exact, so an untruncated empty result is a proof of
    non-existence.  budget caps trial-division and divisor-candidate work
    for the query; exceeding it raises OracleBudgetError.
    """
    a, n = query.a, query.n
    tracker = _Budget(budget)
    n_exponents = _factor_counted(n, tracker, {})
    out: list[UnitTriple] = []
    for x in range(n // a + 1, 3 * n // a + 1):
        rnum = a * x - n  # > 0 inside the window
        rden = checked_mul(n, x)
        g = _math_gcd(rnum, rden)
        # q = n*x/g is factored from n's exponents and x's, never directly
        exponents = _factor_counted(x, tracker, dict(n_exponents))
        divisors = _divisors_of_square(exponents, g, tracker)
        for y, z in _completions(rnum // g, rden // g, divisors, x, query.distinct_only):
            out.append(
                make_triple(
                    (x, y, z), a, n, Method.ORACLE,
                    require_distinct=query.distinct_only,
                )
            )
            if query.limit is not None and len(out) >= query.limit:
                return out
    return out


def first_solution(a: int, n: int) -> UnitTriple | None:
    """Lexicographically smallest distinct triple for a/n.

    None is a proof of non-existence: the finite window scan behind it is
    exhaustive.
    """
    found = enumerate_three_term(OracleQuery(a, n, distinct_only=True, limit=1))
    return found[0] if found else None
