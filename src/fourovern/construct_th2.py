"""Closed-form constructions for 4/n as a sum of three distinct unit fractions.

Five residue-class paths plus lifting through a prime divisor.  Every path
validates its candidate (exact sum, strictly increasing parts) before
returning it, so the formulas that collapse at tiny n (2, 3, 6) simply
report themselves inapplicable and the dispatcher falls through.

theorem2_dispatch covers every n >= 4 that has at least one prime divisor
not congruent to 1 mod 24; it returns None for n in {2, 3} and whenever
all prime divisors are 1 mod 24 (the "hard" class handled elsewhere).
"""

from __future__ import annotations

from .core_arith import checked_mul, factorize, is_prime
from .triples import ConstructionError, Method, UnitTriple, make_triple


def _accept(values: tuple[int, int, int], n: int, method: Method) -> UnitTriple | None:
    try:
        return make_triple(values, 4, n, method)
    except ConstructionError:
        return None


def path_even(n: int) -> UnitTriple | None:
    """(n/2, n/2 + 1, (n/2)(n/2 + 1)) for even n; inapplicable at n = 2."""
    if n < 2 or n % 2:
        raise ValueError(f"path_even needs even n >= 2, got {n}")
    h = n // 2
    return _accept((h, h + 1, checked_mul(h, h + 1)), n, Method.EVEN)


def path_mod3_2(n: int) -> UnitTriple | None:
    """((n+1)/3, n, n(n+1)/3) for n = 2 (mod 3); inapplicable at n = 2."""
    if n < 2 or n % 3 != 2:
        raise ValueError(f"path_mod3_2 needs n = 2 (mod 3), n >= 2, got {n}")
    x1 = (n + 1) // 3
    return _accept((x1, checked_mul(n, x1), n), n, Method.MOD3_IS_2)


def path_mod3_0(n: int) -> UnitTriple | None:
    """(n/3 + 1, (n/3 + 1)(n/3), n) for n = 0 (mod 3); inapplicable at 3 and 6."""
    if n < 3 or n % 3:
        raise ValueError(f"path_mod3_0 needs n = 0 (mod 3), n >= 3, got {n}")
    third = n // 3
    return _accept((third + 1, checked_mul(third + 1, third), n), n, Method.MOD3_IS_0)


def path_3mod4(n: int) -> UnitTriple | None:
    """With d = (n+1)/4: (1 + d, d(1 + d), d*n) for n = 3 (mod 4).

    Applied to every n = 3 (mod 4), n >= 7 (the divisibility needed by the
    fraction forms (n+5)/4, (n+1)(n+5)/16, n(n+1)/4 holds for the whole
    class); inapplicable at n = 3 where the parts repeat.
    """
    if n < 3 or n % 4 != 3:
        raise ValueError(f"path_3mod4 needs n = 3 (mod 4), got {n}")
    d = (n + 1) // 4
    return _accept((1 + d, checked_mul(d, 1 + d), checked_mul(d, n)), n, Method.MOD4_IS_3)


def path_prime_13mod24(p: int) -> UnitTriple | None:
    """With k = (p+3)/4: (k, p*k/2, k*p) for prime p = 13 (mod 24).

    That residue makes k even, so p*k/2 is an integer; other residues are
    rejected outright rather than producing a non-unit term.
    """
    if p % 24 != 13:
        raise ValueError(f"path_prime_13mod24 needs p = 13 (mod 24), got {p}")
    if not is_prime(p):
        raise ValueError(f"path_prime_13mod24 needs prime p, got {p}")
    k = (p + 3) // 4
    return _accept((k, checked_mul(p, k // 2), checked_mul(k, p)), p, Method.PRIME_13_MOD_24)


def lift_by_cofactor(t: UnitTriple, c: int) -> UnitTriple:
    """Scale a decomposition of a/m by c, giving one of a/(m*c).

    Scaling preserves distinctness and exactness; c = 1 returns the input
    unchanged, anything larger is tagged as a lift.
    """
    if c < 1:
        raise ValueError(f"cofactor must be positive, got {c}")
    if c == 1:
        return t
    return make_triple(
        (checked_mul(t.x1, c), checked_mul(t.x2, c), checked_mul(t.x3, c)),
        t.target_num,
        checked_mul(t.target_den, c),
        Method.PRIME_LIFT,
    )


def _closed_form(n: int) -> UnitTriple | None:
    # Fixed priority: Even, Mod3Is2, Mod3Is0, Mod4Is3.  Deterministic sweep
    # classification depends on this order never changing.
    if n % 2 == 0:
        t = path_even(n)
        if t is not None:
            return t
    if n % 3 == 2:
        t = path_mod3_2(n)
        if t is not None:
            return t
    if n % 3 == 0 and n >= 3:
        t = path_mod3_0(n)
        if t is not None:
            return t
    if n % 4 == 3:
        t = path_3mod4(n)
        if t is not None:
            return t
    return None


def _construct_for_prime(p: int) -> UnitTriple | None:
    base = _closed_form(p)
    if base is None and p % 24 == 13:
        base = path_prime_13mod24(p)
    return base  # None only for p in {2, 3}


def theorem2_dispatch(n: int) -> tuple[UnitTriple, Method] | None:
    """First applicable construction for 4/n, or None when every path is out.

    Tries the closed forms in priority order, then lifts a construction for
    the smallest prime divisor p of n with p != 1 (mod 24) by the cofactor
    n/p.  Every candidate is validated before acceptance.  None is a
    legitimate outcome: n in {2, 3}, or every prime divisor is 1 mod 24.
    """
    if n < 2:
        raise ValueError(f"theorem2_dispatch expects n >= 2, got {n}")
    t = _closed_form(n)
    if t is not None:
        return t, t.method
    for p, _ in factorize(n):
        if p % 24 == 1:
            continue
        base = _construct_for_prime(p)
        if base is None:
            continue
        lifted = lift_by_cofactor(base, n // p)
        return lifted, lifted.method
    return None
