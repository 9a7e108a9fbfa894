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

A witness sum s whose odd part is below 1001**2 is settled without
factoring it.  The least m dividing s is its least prime factor that is
3 mod 4 (a product of primes 1 mod 4 is 1 mod 4), so one gcd with the
product of those primes up to 1000 finds it when it is small.  If there
is none, the odd part has at most one prime above 1000 (the least
product of two is 1009**2): dividing out the small primes, all 1 mod 4,
by gcds leaves 1 or that prime, which is congruent to the odd part mod
4.  Larger sums are factored.

In theorem3_search's scan, let u be the part of kk coprime to s.  No
prime of u divides a, a divisor of s, so kk | a*t needs u | t, that is
m = -1 (mod 4u).  The cofactor c of m in the odd part of s is then
-odd (mod 4u) and at most odd/(4u - 1); conversely such a c that divides
the odd part is coprime to 4u and gives an m = -1 (mod 4u).  When 4u is
large that class is short, and scanning it downwards lists those m
ascending, a superset of the m that pass, without factoring s.

Both searches build only witnesses that meet these requirements, and the
no-divisor-3-mod-4 hypothesis is not checked.  make_triple's exact-sum and
distinctness check of the built triple is the only gate, so a witness for
an n outside the hypothesis either validates or is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import merge
from itertools import chain
from math import gcd, prod
from typing import Iterator, Sequence

from .core_arith import _TRIAL_BOUND, _factor, checked_mul, divisors, primes_up_to
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


@lru_cache(maxsize=64)
def _m_candidates(s: int) -> tuple[int, ...]:
    """Divisors of s congruent to 3 mod 4, ascending.

    Only odd divisors can be 3 mod 4, so only those are built, from the
    odd primes of s.  A product of primes 1 mod 4 is 1 mod 4, so an s with
    no prime factor 3 mod 4 returns () without building any.  s is factored
    past factorize's cache.  The small cache here serves theorem3_search,
    which may ask for a large sum right after _least_m factored it; sums
    of different n almost never recur.
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


# the primes <= _TRIAL_BOUND that are 3 mod 4, their product, and the
# product of all odd primes <= _TRIAL_BOUND; built on first use
_primes_3_mod_4: list[int] = []
_product_3_mod_4 = 0
_product_odd = 0

# an odd number below this, freed of its primes <= _TRIAL_BOUND, is 1 or a prime
_ONE_LARGE_PRIME = (_TRIAL_BOUND + 1) ** 2


def _least_m(s: int) -> int | None:
    """The least divisor of s that is 3 mod 4, or None: _m_candidates(s)[:1].

    When the odd part of s is below 1001**2, gcds settle it (see the module
    docstring); a larger s is factored.
    """
    global _primes_3_mod_4, _product_3_mod_4, _product_odd
    odd = s // (s & -s)
    if odd >= _ONE_LARGE_PRIME:
        ms = _m_candidates(s)
        return ms[0] if ms else None
    if not _product_odd:
        odd_primes = primes_up_to(_TRIAL_BOUND)[1:]
        _primes_3_mod_4 = [p for p in odd_primes if p % 4 == 3]
        _product_3_mod_4 = prod(_primes_3_mod_4)
        _product_odd = prod(odd_primes)
    g = gcd(odd, _product_3_mod_4)
    if g > 1:  # g is squarefree: its least prime is <= isqrt(g), or g is prime
        for p in _primes_3_mod_4:
            if p * p > g:
                break
            if g % p == 0:
                return p
        return g
    if odd % 4 == 1:
        return None
    g = gcd(odd, _product_odd)
    while g > 1:
        odd //= g
        g = gcd(odd, g)
    return odd


# The most values a class of cofactors may hold for _m_in_class to scan it:
# each costs one modulo test, about 0.1 us, where an uncached _m_candidates
# costs about 7 us (Python 3.11 on a 2-core Xeon).
_SCAN_LIMIT = 48


def _m_in_class(s: int, kk: int) -> Sequence[int]:
    """Ascending m = 3 (mod 4) dividing s, among them every m with kk | a*t.

    When the class of cofactors of those m in the odd part of s (see the
    module docstring) is short, its members that divide the odd part are
    scanned, largest first, and s is not factored.  Otherwise every m comes
    from _m_candidates, unless _least_m finds none.
    """
    u = kk
    g = gcd(u, s)
    while g > 1:
        u //= g
        g = gcd(u, g)
    q = 4 * u
    odd = s // (s & -s)
    low = -odd % q
    top = odd // (q - 1)
    if top < low:
        return ()
    if top - low >= _SCAN_LIMIT * q:
        return _m_candidates(s) if _least_m(s) else ()
    top -= (top - low) % q
    return [odd // c for c in range(top, 0, -q) if odd % c == 0]


def _shared_ks(ds: list[int], lim: int, k_bound: int) -> Iterator[int]:
    """The odd k in (lim, k_bound] that some d in ds divides, ascending, once each.

    One lazy range per d, merged, so no list grows with k_bound.
    """
    last = 0
    for k in merge(*[range(d * ((lim // d + 1) | 1), k_bound + 1, 2 * d) for d in ds]):
        if k != last:
            last = k
            yield k


def theorem3_search(
    n: int, k_bound: int = DEFAULT_K_BOUND
) -> tuple[UnitTriple, Th3Params] | None:
    """Bounded witness scan: delta ascending over divisors of n, then odd k
    up to k_bound, then m ascending over divisors of delta + k.

    Only the k with 3*(k / gcd(k, n)) <= delta + k can hold a witness, so
    the scan visits the odd k <= delta/2 and the odd multiples of a divisor
    d > 1 of n, skipping the rest; the visiting order of those it keeps is
    the full scan's, so the first witness found is the same.  The m of
    each sum come from _m_in_class, which leaves out only m that fail
    kk | a*t.

    Returns the first witness whose congruence holds and whose triple
    validates.  None means the bounded search is exhausted, not that no
    witness exists.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"theorem3_search needs odd n >= 3, got {n}")
    if k_bound < 1:
        raise ValueError(f"k_bound must be positive, got {k_bound}")
    divs = divisors(n)
    # the divisors d > 1 whose odd multiples are the only k > delta/2 that can hold
    ds = [d for d in divs[1:] if d <= k_bound]
    for delta in divs:
        lim = min(k_bound, delta // 2)
        for k in chain(range(1, lim + 1, 2), _shared_ks(ds, lim, k_bound)):
            s = delta + k
            kk = k // gcd(k, n)
            if 3 * kk > s:
                continue
            for m in _m_in_class(s, kk):
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
            m = _least_m(delta + d)
            if m is None:
                continue
            w = Th3Params(delta, d, m, (delta + d) // m, (m + 1) // 4)
            try:
                return _construct(n, w, Method.THEOREM_4), w
            except ConstructionError:
                pass
    return None
