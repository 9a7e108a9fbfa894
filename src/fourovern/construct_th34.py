"""Witness-based constructions for 4/n, n odd.

A witness is a tuple (delta, k, m, a, t) with delta | n, k odd, m = 3
(mod 4), a*m = delta + k, t = (m+1)/4 and a*t*n = 0 (mod k).  From it the
exact decomposition

    4/n = 1/(a*t*n/k) + 1/(a*t*(n/delta)) + 1/(t*n)

follows, with distinct parts whenever n has no divisor congruent to 3 mod
4.  theorem3_search scans for witnesses under a k bound; theorem4_*
specialize k to a divisor d of n, where the congruence holds for free and
only delta + d needs a qualifying m.

With kk = k / gcd(k, n), k | a*t*n holds exactly when kk | a*t, and
a*t = (delta + k)(m + 1)/(4m) <= (delta + k)/3 because m >= 3.  So a
witness needs 3*kk <= delta + k: a k coprime to n can only work when
k <= delta/2, and a larger k must share a factor with n.  theorem3_search
visits only those k, in the same order as the full scan, so it returns
the same first witness.

The no-divisor-3-mod-4 hypothesis is not checked.  Acceptance rests on
the exact-sum and distinctness validation of the built triple alone, so a
witness for an n outside the hypothesis either validates or is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd

from .core_arith import checked_mul, divisors, factorize
from .triples import ConstructionError, Method, UnitTriple, make_triple

DEFAULT_K_BOUND = 999


class HypothesisViolation(ValueError):
    """A witness tuple breaks one of the construction's requirements."""


@dataclass(frozen=True)
class Th3Params:
    """Witness (delta, k, m, a, t) with a*m == delta + k and t == (m+1)/4."""

    delta: int
    k: int
    m: int
    a: int
    t: int

    @classmethod
    def from_divisor_k_m(cls, delta: int, k: int, m: int) -> "Th3Params":
        if m < 3 or m % 4 != 3:
            raise HypothesisViolation(f"m must be 3 (mod 4), got {m}")
        if (delta + k) % m:
            raise HypothesisViolation(f"m={m} does not divide delta+k={delta + k}")
        return cls(delta, k, m, (delta + k) // m, (m + 1) // 4)


def _validate(n: int, w: Th3Params) -> None:
    if n < 1 or n % 2 == 0:
        raise HypothesisViolation(f"n must be odd and positive, got {n}")
    if w.delta < 1 or n % w.delta:
        raise HypothesisViolation(f"delta={w.delta} does not divide n={n}")
    if w.k < 1 or w.k % 2 == 0:
        raise HypothesisViolation(f"k must be an odd positive integer, got {w.k}")
    if w.m < 3 or w.m % 4 != 3:
        raise HypothesisViolation(f"m must be 3 (mod 4), got {w.m}")
    if w.a < 1 or w.a * w.m != w.delta + w.k:
        raise HypothesisViolation(f"a*m == delta+k fails for {w}")
    if w.t != (w.m + 1) // 4:
        raise HypothesisViolation(f"t == (m+1)/4 fails for {w}")
    if checked_mul(w.a * w.t, n) % w.k:
        raise HypothesisViolation(f"a*t*n is not divisible by k={w.k} for {w}")


def _construct(n: int, w: Th3Params, method: Method) -> UnitTriple:
    _validate(n, w)
    at = w.a * w.t
    atn = checked_mul(at, n)
    x1 = atn // w.k
    x2 = checked_mul(at, n // w.delta)
    x3 = checked_mul(w.t, n)
    return make_triple((x1, x2, x3), 4, n, method)


def theorem3_construct(n: int, params: Th3Params) -> UnitTriple:
    """Build and validate the triple (a*t*n/k, a*t*(n/delta), t*n) for 4/n.

    Violated witness requirements raise HypothesisViolation; a built triple
    with repeated parts raises ConstructionError.  When n has no divisor
    3 (mod 4) that cannot happen; outside that hypothesis (n = 3, say) it
    can, and the error is raised instead of a triple being returned.
    """
    return _construct(n, params, Method.THEOREM_3_SEARCH)


@lru_cache(maxsize=1 << 14)
def _m_candidates(s: int) -> tuple[int, ...]:
    """Divisors of s congruent to 3 mod 4, ascending.

    Only odd divisors can be 3 mod 4, so only those are built, from the
    odd primes of s.  A product of primes 1 mod 4 is 1 mod 4, so an s with
    no prime factor 3 mod 4 returns () without building any.
    """
    pairs = factorize(s) if s > 1 else ()
    if pairs and pairs[0][0] == 2:
        pairs = pairs[1:]
    if not any(p % 4 == 3 for p, _ in pairs):
        return ()
    divs = [1]
    for p, e in pairs:
        grown = divs
        for _ in range(e):
            grown = [d * p for d in grown]
            divs = divs + grown
    divs.sort()
    return tuple([m for m in divs if m % 4 == 3])


def theorem3_search(
    n: int, k_bound: int = DEFAULT_K_BOUND
) -> tuple[UnitTriple, Th3Params] | None:
    """Bounded witness scan: delta ascending over divisors of n, then odd k
    up to k_bound, then m ascending over divisors of delta + k.

    Only the k with 3*(k / gcd(k, n)) <= delta + k can hold a witness, so
    the scan visits the odd k <= delta/2 and the odd multiples of a divisor
    d > 1 of n, skipping the rest; the visiting order of those it keeps is
    the full scan's, so the first witness found is the same.

    Returns the first witness whose congruence holds and whose triple
    validates.  None means the bounded search is exhausted, not that no
    witness exists.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"theorem3_search needs odd n >= 3, got {n}")
    if k_bound < 1:
        raise ValueError(f"k_bound must be positive, got {k_bound}")
    divs = divisors(n)
    # odd k <= k_bound sharing a factor with n: the only k > delta/2 that can hold
    shared = sorted({k for d in divs[1:] for k in range(d, k_bound + 1, 2 * d)})
    for delta in divs:
        lim = min(k_bound, delta // 2)
        for k in chain(range(1, lim + 1, 2), (k for k in shared if k > lim)):
            s = delta + k
            kk = k // gcd(k, n)
            if 3 * kk > s:
                continue
            for m in _m_candidates(s):
                a = s // m
                t = (m + 1) // 4
                if a * t % kk:
                    continue
                w = Th3Params(delta, k, m, a, t)
                try:
                    return _construct(n, w, Method.THEOREM_3_SEARCH), w
                except ConstructionError:
                    continue
    return None


def _theorem4_attempt(n: int, delta: int, d: int) -> tuple[UnitTriple, Th3Params] | None:
    ms = _m_candidates(delta + d)
    if not ms:
        return None
    w = Th3Params.from_divisor_k_m(delta, d, ms[0])
    return _construct(n, w, Method.THEOREM_4), w


def theorem4_construct(n: int, delta: int, d: int) -> tuple[UnitTriple, Th3Params] | None:
    """Witness with k = d for divisors delta, d of n.

    Uses the smallest divisor of delta + d congruent to 3 mod 4 (any one
    works, smallest keeps the parts minimal); returns None when there is
    none.  The congruence on a*t*n holds automatically because d | n.
    """
    if n < 1 or n % 2 == 0:
        raise HypothesisViolation(f"n must be odd and positive, got {n}")
    if delta < 1 or n % delta or d < 1 or n % d:
        raise HypothesisViolation(f"delta={delta} and d={d} must divide n={n}")
    return _theorem4_attempt(n, delta, d)


def theorem4_search(n: int) -> tuple[UnitTriple, Th3Params] | None:
    """First divisor pair (delta, d) of n, in ascending lexicographic order,
    whose sum admits a qualifying m and whose triple validates."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"theorem4_search needs odd n >= 3, got {n}")
    divs = divisors(n)
    for delta in divs:
        for d in divs:
            try:
                found = _theorem4_attempt(n, delta, d)
            except ConstructionError:
                continue
            if found is not None:
                return found
    return None
