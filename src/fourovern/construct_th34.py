"""Witness-based constructions for 4/n, n odd.

A witness is a tuple (delta, k, m, a, t) with delta | n, k odd, m = 3
(mod 4), a*m = delta + k, t = (m+1)/4 and a*t*n = 0 (mod k).  From it the
exact decomposition

    4/n = 1/(a*t*n/k) + 1/(a*t*(n/delta)) + 1/(t*n)

follows, with distinct parts whenever n has no divisor congruent to 3 mod
4.  theorem3_search scans for witnesses under a k bound; theorem4_search
specializes k to a divisor d of n, where the congruence holds for free and
only delta + d needs a qualifying m.

With kk = k / gcd(k, n), k | a*t*n holds exactly when kk | a*t, and
a*t = (delta + k)(m + 1)/(4m) <= (delta + k)/3 because m >= 3.  So a
witness needs 3*kk <= delta + k: a k coprime to n can only work when
k <= delta/2, and a larger k must share a factor with n.  theorem3_search
visits only those k, in the same order as the full scan, so it returns
the same first witness.

Both searches build only witnesses that meet these requirements, and the
no-divisor-3-mod-4 hypothesis is not checked.  make_triple's exact-sum and
distinctness check of the built triple is the only gate, so a witness for
an n outside the hypothesis either validates or is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import gcd

from .core_arith import _factor, checked_mul, divisors
from .triples import ConstructionError, Method, UnitTriple, make_triple

DEFAULT_K_BOUND = 999


@dataclass(frozen=True)
class Th3Params:
    """Witness (delta, k, m, a, t) with a*m == delta + k and t == (m+1)/4."""

    delta: int
    k: int
    m: int
    a: int
    t: int


def _construct(n: int, w: Th3Params, method: Method) -> UnitTriple:
    """The triple (a*t*n/k, a*t*(n/delta), t*n), checked by make_triple."""
    at = w.a * w.t
    x1 = checked_mul(at, n) // w.k
    x2 = checked_mul(at, n // w.delta)
    x3 = checked_mul(w.t, n)
    return make_triple((x1, x2, x3), 4, n, method)


@lru_cache(maxsize=1 << 14)
def _m_candidates(s: int) -> tuple[int, ...]:
    """Divisors of s congruent to 3 mod 4, ascending.

    Only odd divisors can be 3 mod 4, so only those are built, from the
    odd primes of s.  A product of primes 1 mod 4 is 1 mod 4, so an s with
    no prime factor 3 mod 4 returns () without building any.  s is factored
    past factorize's cache: the result is kept here, and few sums recur.
    """
    pairs = _factor(s) if s > 1 else ()
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


def theorem4_search(n: int) -> tuple[UnitTriple, Th3Params] | None:
    """First divisor pair (delta, d) of n, in ascending lexicographic order,
    whose sum admits a qualifying m and whose triple validates.

    The witness takes k = d, so k | a*t*n holds as d | n, and the least
    m = 3 (mod 4) dividing delta + d, which keeps the parts smallest.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"theorem4_search needs odd n >= 3, got {n}")
    divs = divisors(n)
    for delta in divs:
        for d in divs:
            for m in _m_candidates(delta + d)[:1]:
                w = Th3Params(delta, d, m, (delta + d) // m, (m + 1) // 4)
                try:
                    return _construct(n, w, Method.THEOREM_4), w
                except ConstructionError:
                    pass
    return None
