"""Two-term distinct unit-fraction decompositions of q/p.

solve_two_term applies the closed-form splitting rule ((p+1)/q, p(p+1)/q),
which exists exactly when q divides p + 1.  For prime p that rule is also
complete: no divisibility means no distinct solution at all, and the
solution is unique up to order.  enumerate_two_term is the brute-force
counterpart that exhausts the finite window and is used to check both
claims.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core_arith import Fraction, checked_mul, gcd, unit_sum
from .triples import ConstructionError


@dataclass(frozen=True)
class TwoTermSolution:
    """A pair x1 <= x2; strict inequality whenever distinctness was required."""

    x1: int
    x2: int

    def __post_init__(self) -> None:
        if self.x1 < 1 or self.x2 < self.x1:
            raise ValueError(f"expected 1 <= x1 <= x2, got ({self.x1}, {self.x2})")

    @property
    def values(self) -> tuple[int, int]:
        return (self.x1, self.x2)


def solve_two_term(q: int, p: int) -> TwoTermSolution | None:
    """Closed-form solution of q/p = 1/x1 + 1/x2 with x1 < x2, if it applies.

    Returns None when q does not divide p + 1.  For prime p that None is a
    proof that no distinct solution exists; for composite p it only means
    this constructor does not apply.  p = 1 collapses to a repeated part
    and also yields None.  A pair whose exact sum is not q/p raises
    ConstructionError.
    """
    if q < 1 or p < 1:
        raise ValueError(f"q and p must be positive, got ({q}, {p})")
    if (p + 1) % q != 0:
        return None
    x1 = (p + 1) // q
    x2 = checked_mul(p, x1)
    if x1 == x2:  # only p == 1
        return None
    sol = TwoTermSolution(x1, x2)
    if unit_sum(sol.values) != Fraction(q, p):
        raise ConstructionError(f"1/{x1} + 1/{x2} does not sum to {q}/{p}")
    return sol


def enumerate_two_term(q: int, p: int, distinct_only: bool = True) -> list[TwoTermSolution]:
    """All pairs x <= y with 1/x + 1/y == q/p, ascending in x.

    Any solution's smaller part satisfies p/q < x <= 2p/q, so scanning that
    window is exhaustive: an empty result is a proof of non-existence.
    q/p > 2 can never be a sum of two unit fractions and short-circuits.
    """
    if q < 1 or p < 1:
        raise ValueError(f"q and p must be positive, got ({q}, {p})")
    out: list[TwoTermSolution] = []
    if q > 2 * p:
        return out
    for x in range(p // q + 1, (2 * p) // q + 1):
        rnum = q * x - p  # > 0 inside the window
        rden = checked_mul(p, x)
        g = gcd(rnum, rden)
        if rnum != g:  # reduced residual is a unit fraction iff its numerator is 1
            continue
        y = rden // g
        if distinct_only and y == x:
            continue
        out.append(TwoTermSolution(x, y))
    return out
