"""Exhaustive enumeration of a/n = 1/x + 1/y + 1/z, independent ground truth.

Deliberately shares nothing with the constructive modules beyond basic
arithmetic, so it can falsify them.  For each x in the exact window
n/a < x <= 3n/a the residual reduces to p/q, and every completion
1/y + 1/z = p/q corresponds via (p*y - q)(p*z - q) = q*q to a divisor
d <= q of q*q with d = -q (mod p).  Work is therefore bounded by divisor
counts rather than magnitudes, and only the divisors up to q are built.

Every query is bounded: trial divisions and divisor candidates are
counted against ORACLE_BUDGET, and a query that would exceed it raises
OracleBudgetError instead of answering.  An answer given is exhaustive.

The tests cross-check it at small n against a second, independent
implementation: the quadratic double loop over x and y in tests/naive.py.
"""

from __future__ import annotations

from math import gcd as _math_gcd

from .triples import Method, UnitTriple, make_triple

# work units (trial divisions plus divisor candidates) one query may spend:
# solve's oracle calls over [3, 1e6] spend at most 1,398, and exhausting it
# takes 1.2-1.4 s on a 2-core Intel Xeon host
ORACLE_BUDGET = 10**7


class OracleBudgetError(RuntimeError):
    """One query would spend more than ORACLE_BUDGET work units."""


class _Budget:
    __slots__ = ("remaining", "a", "n")

    def __init__(self, a: int, n: int) -> None:
        self.remaining = ORACLE_BUDGET
        self.a, self.n = a, n

    def spend(self, amount: int) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise OracleBudgetError(
                f"oracle budget of {ORACLE_BUDGET} work units exhausted on {self.a}/{self.n}"
            )


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
    """Sorted divisors up to q of q*q, where q is the product of p**e over
    exponents, divided by g.  The number of all divisors of q*q is spent
    before the list is built; only about half of them are kept."""
    q = 1
    powers = []
    count = 1
    for p, e in exponents.items():
        while g % p == 0:
            g //= p
            e -= 1
        q *= p**e
        powers.append((p, 2 * e))
        count *= 2 * e + 1
    budget.spend(count)
    divs = [1]
    for p, k in powers:
        grown = []
        for d in divs:
            # a product above q stays above q however it grows
            for _ in range(k + 1):
                if d > q:
                    break
                grown.append(d)
                d *= p
        divs = grown
    divs.sort()
    return divs


def _completions(p: int, q: int, divisors: list[int], xmin: int, strict: bool):
    """Yield (y, z), y ascending, with 1/y + 1/z == p/q and y >= xmin.

    gcd(p, q) == 1 is assumed, and divisors are the sorted divisors up to q
    of q*q.  d runs over those with d = -q (mod p), giving y = (d + q)/p
    and z = (q*q/d + q)/p; the cofactor side is automatically congruent, so
    z is always integral.
    """
    qq = q * q
    for d in divisors:
        if strict and d == q:
            break
        if (d + q) % p:
            continue
        y = (d + q) // p
        if y < xmin or (strict and y == xmin):
            continue
        z = (qq // d + q) // p
        yield y, z


def enumerate_three_term(
    a: int, n: int, *, distinct_only: bool = True, limit: int | None = None
) -> list[UnitTriple]:
    """All triples x <= y <= z (strict when distinct_only) summing to a/n.

    Lexicographic order, truncated at limit.  The window on the smallest
    part is exact, so an untruncated empty result is a proof of
    non-existence.  A target a/n > 3 has an empty window and gives [].
    A query that would spend more than ORACLE_BUDGET raises
    OracleBudgetError: it answers exhaustively or not at all.
    """
    if a < 1 or n < 1:
        raise ValueError(f"a and n must be positive, got ({a}, {n})")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive when given, got {limit}")
    tracker = _Budget(a, n)
    n_exponents = _factor_counted(n, tracker, {})
    out: list[UnitTriple] = []
    for x in range(n // a + 1, 3 * n // a + 1):
        rnum = a * x - n  # > 0 inside the window
        rden = n * x
        g = _math_gcd(rnum, rden)
        # q = n*x/g is factored from n's exponents and x's, never directly
        exponents = _factor_counted(x, tracker, dict(n_exponents))
        divisors = _divisors_of_square(exponents, g, tracker)
        for y, z in _completions(rnum // g, rden // g, divisors, x, distinct_only):
            out.append(
                make_triple((x, y, z), a, n, Method.ORACLE, require_distinct=distinct_only)
            )
            if limit is not None and len(out) >= limit:
                return out
    return out


def first_solution(a: int, n: int) -> UnitTriple | None:
    """Lexicographically smallest distinct triple for a/n.

    None is a proof of non-existence: the finite window scan behind it is
    exhaustive.  A scan that would exceed ORACLE_BUDGET raises
    OracleBudgetError rather than return None.
    """
    found = enumerate_three_term(a, n, limit=1)
    return found[0] if found else None
