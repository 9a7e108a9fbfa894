"""Exact integer and rational arithmetic on a fixed working width.

Anything that can grow is routed through the checked helpers, so a value
that would leave the signed 128-bit range raises CheckedOverflowError
carrying its operands instead of silently continuing.  Fractions are
reduced eagerly, which makes equality structural.

Primality is deterministic (trial division backed by a fixed Miller-Rabin
witness set).  Factoring takes out the power of two with n & -n, then
screens the odd part with a single gcd against the product of the odd
primes up to 1000: that gcd is the squarefree product of the small
primes dividing n, so only those few are divided out.  Any larger
cofactor is split with Pollard-Brent rho, using the primality test to
stop; rho's constants are fixed, so results and running times are
reproducible.  Both are exact; neither is probabilistic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Sequence

INT128_MAX = (1 << 127) - 1
INT128_MIN = -(1 << 127)

# Deterministic Miller-Rabin witnesses; exact for every n below this bound
# (comfortably past 64-bit), which is where trial division stops being viable.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981

_TRIAL_BOUND = 1000  # small primes tried before Miller-Rabin kicks in


class CheckedOverflowError(OverflowError):
    """A checked operation left the signed 128-bit working range."""

    def __init__(self, op: str, a: int, b: int) -> None:
        super().__init__(f"{op}({a}, {b}) leaves the signed 128-bit range")
        self.op = op
        self.operands = (a, b)


def checked_add(a: int, b: int) -> int:
    """a + b, or CheckedOverflowError if the sum leaves the working range."""
    r = a + b
    if r > INT128_MAX or r < INT128_MIN:
        raise CheckedOverflowError("add", a, b)
    return r


def checked_mul(a: int, b: int) -> int:
    """a * b, or CheckedOverflowError if the product leaves the working range."""
    r = a * b
    if r > INT128_MAX or r < INT128_MIN:
        raise CheckedOverflowError("mul", a, b)
    return r


@dataclass(frozen=True)
class Fraction:
    """A positive rational, always stored reduced."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.num < 1 or self.den < 1:
            raise ValueError(f"fraction must be positive: {self.num}/{self.den}")
        g = gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


# ---------------------------------------------------------------------------
# prime table (cached sieve, grown on demand)

_sieve_limit = 0
_primes: list[int] = []


def _extend_sieve(limit: int) -> None:
    global _sieve_limit, _primes
    limit = max(limit, 1 << 16, 2 * _sieve_limit)
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((limit - start) // p + 1)
    _primes = [i for i, f in enumerate(flags) if f]
    _sieve_limit = limit


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    if limit > _sieve_limit:
        _extend_sieve(limit)
    return _primes[: bisect_right(_primes, limit)]


# ---------------------------------------------------------------------------
# factorization, divisors, primality

def _miller_rabin(n: int) -> bool:
    """Miller-Rabin against the fixed witnesses; exact for odd 1000**2 < n < bound."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent, BIT 20, 1980).

    The iteration is y -> y*y + c from y = 2, with c = 1, 2, ... taken in
    turn until one splits n; gcds are batched over 128 steps.
    """
    for c in range(1, n):
        x = y = ys = 2
        r = q = g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho found no factor of {n}")


def _split(m: int, out: list[int]) -> None:
    """Append the prime factors of m, which has none <= _TRIAL_BOUND, to out."""
    if m < (_TRIAL_BOUND + 1) ** 2 or _miller_rabin(m):
        out.append(m)
        return
    d = _rho_factor(m)
    _split(d, out)
    _split(m // d, out)


# product of the odd primes <= _TRIAL_BOUND, and those primes; built on first use
_screen_product = 0
_screen_primes: list[int] = []


def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n) for n >= 2, without the cache."""
    global _screen_product, _screen_primes
    if not _screen_product:
        _screen_primes = primes_up_to(_TRIAL_BOUND)[1:]
        _screen_product = prod(_screen_primes)
    low = n & -n
    pairs: list[tuple[int, int]] = [(2, low.bit_length() - 1)] if low > 1 else []
    m = n // low
    # g is the squarefree product of the odd primes <= _TRIAL_BOUND dividing m
    g = gcd(m, _screen_product)
    small: list[int] = []
    for p in _screen_primes:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            small.append(p)
    if g > 1:  # no prime factor below its square root left: g is prime
        small.append(g)
    for p in small:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        pairs.append((p, e))
    if m >= _MR_EXACT_BOUND:
        raise ValueError(
            f"factorize: cofactor {m} of {n} exceeds the deterministic primality range"
        )
    large: list[int] = []
    if m > 1:
        _split(m, large)
    for p in sorted(large):
        if pairs and pairs[-1][0] == p:
            pairs[-1] = (p, pairs[-1][1] + 1)
        else:
            pairs.append((p, 1))
    return tuple(pairs)


# the cache behind factorize and divisors, so each n is factored once
_factor_pairs = lru_cache(maxsize=1 << 16)(_factor)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of n; deterministic and exact.

    The power of two comes off with n & -n.  One gcd of the odd part with
    the product of the odd primes up to 1000 (built on the first call)
    names the small primes that divide n; that gcd is squarefree, so it
    is trial-divided only while p*p <= gcd, and what is left of it is
    prime.  Only those primes are divided out of n.  Pollard-Brent rho
    then splits whatever cofactor is left, with is_prime's fixed
    witnesses deciding when a piece is prime.  Raises ValueError, naming
    the value, when that cofactor is at or above the witnesses' proven
    bound (about 3.3e24) rather than guess; every n below that bound is
    factored.
    """
    if n < 2:
        raise ValueError(f"factorize expects n >= 2, got {n}")
    return _factor_pairs(n)


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending (so starting at 1 and ending at n)."""
    if n < 1:
        raise ValueError(f"divisors expects n >= 1, got {n}")
    if n == 1:
        return [1]
    divs = [1]
    for p, e in _factor_pairs(n):
        grown = []
        pk = 1
        for _ in range(e + 1):
            for d in divs:
                grown.append(d * pk)
            pk *= p
        divs = grown
    divs.sort()
    return divs


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Trial division by primes up to 1000 settles everything below 1000**2;
    beyond that the fixed witness set decides exactly up to its proven
    bound (well past 64 bits).  Larger inputs raise rather than guess.
    """
    if n < 2:
        return False
    for p in primes_up_to(min(_TRIAL_BOUND, isqrt(n))):
        if n % p == 0:
            return n == p
    if n < (_TRIAL_BOUND + 1) ** 2:
        return True
    if n >= _MR_EXACT_BOUND:
        raise ValueError(f"is_prime: {n} exceeds the deterministic witness range")
    return _miller_rabin(n)


def unit_sum(xs: Sequence[int]) -> Fraction:
    """Exact reduced sum of 1/x over xs, with checked arithmetic throughout."""
    if not xs:
        raise ValueError("unit_sum of an empty sequence")
    num, den = 0, 1
    for x in xs:
        if x < 1:
            raise ValueError(f"unit fractions need positive denominators, got {x}")
        # the running denominator stays at the lcm of the parts so far
        g = gcd(den, x)
        num = checked_add(checked_mul(num, x // g), den // g)
        den = checked_mul(den // g, x)
        g = gcd(num, den)
        num //= g
        den //= g
    return Fraction(num, den)
