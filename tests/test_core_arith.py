import math
import random
from fractions import Fraction as PyFraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourovern.core_arith import (
    INT128_MAX,
    CheckedOverflowError,
    Fraction,
    PrimalityRangeError,
    _coprime_part,
    _screens,
    checked_add,
    checked_mul,
    divisors,
    factorize,
    is_prime,
    primes_up_to,
    unit_sum,
)


class TestCheckedOps:
    def test_mul_within_width(self):
        assert checked_mul(2**63, 2) == 2**64

    def test_mul_overflow_carries_operands(self):
        with pytest.raises(CheckedOverflowError) as exc:
            checked_mul(2**127, 2)
        assert exc.value.operands == (2**127, 2)

    def test_mul_zero(self):
        assert checked_mul(0, 2**126) == 0

    def test_add_boundary(self):
        assert checked_add(INT128_MAX - 1, 1) == INT128_MAX
        with pytest.raises(CheckedOverflowError):
            checked_add(INT128_MAX, 1)

    def test_negative_boundary(self):
        with pytest.raises(CheckedOverflowError):
            checked_mul(-(2**126), 4)

    @given(st.integers(-(2**63), 2**63), st.integers(-(2**63), 2**63))
    def test_exact_within_width(self, a, b):
        assert checked_mul(a, b) == a * b
        assert checked_add(a, b) == a + b


class TestFraction:
    def test_reduced_eagerly(self):
        f = Fraction(8, 12)
        assert (f.num, f.den) == (2, 3)
        assert f == Fraction(2, 3)

    def test_structural_equality_and_str(self):
        assert Fraction(4, 10) == Fraction(2, 5)
        assert str(Fraction(4, 10)) == "2/5"

    @pytest.mark.parametrize("num,den", [(0, 1), (1, 0), (-1, 2), (2, -4)])
    def test_nonpositive_rejected(self, num, den):
        with pytest.raises(ValueError):
            Fraction(num, den)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,want",
        [(25, [1, 5, 25]), (1, [1]), (12, [1, 2, 3, 4, 6, 12]), (7, [1, 7])],
    )
    def test_examples(self, n, want):
        assert divisors(n) == want

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            divisors(0)

    @pytest.mark.parametrize("n", list(range(1, 400)) + [5329, 99991])
    def test_matches_brute_force(self, n):
        got = divisors(n)
        assert got == [d for d in range(1, n + 1) if n % d == 0]
        assert got[0] == 1 and got[-1] == n


class TestFactorize:
    def test_prime_square(self):
        assert factorize(5329) == ((73, 2),)

    def test_small(self):
        assert factorize(24) == ((2, 3), (3, 1))

    def test_large_prime(self):
        # independent oracle: trial division all the way to sqrt(n)
        n = 999983
        assert all(n % d for d in range(2, math.isqrt(n) + 1))
        assert factorize(n) == ((n, 1),)

    @pytest.mark.parametrize("n", [0, 1])
    def test_below_two_rejected(self, n):
        with pytest.raises(ValueError):
            factorize(n)

    def test_reconstructs_exhaustively(self):
        for n in range(2, 20_001):
            fac = factorize(n)
            assert math.prod(p**e for p, e in fac) == n
            ps = [p for p, _ in fac]
            assert ps == sorted(ps) and len(set(ps)) == len(ps)
            assert all(is_prime(p) for p in ps)

    @given(st.integers(2, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_reconstructs_random(self, n):
        assert math.prod(p**e for p, e in factorize(n)) == n

    @staticmethod
    def _trial_division(n):
        pairs, p = [], 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                pairs.append((p, e))
            p += 1
        if n > 1:
            pairs.append((n, 1))
        return tuple(pairs)

    @given(st.integers(2, 10**9))
    @example(1009**2)
    @example(1009**3)
    @example(997 * 1009 * 1013)
    @example(999983 * 999979)
    # edges of the gcd screen over the odd primes <= 1000
    @example(3 * 997)
    @example(991 * 997)
    @example(997**2)
    @example(3**40)
    @example(2**62)
    @example(2**10 * 1009 * 1013)
    @example(997**3 * 1009)
    @example(math.prod(p for p in range(3, 54) if all(p % d for d in range(2, p))))
    @settings(max_examples=200, deadline=None)
    def test_matches_trial_division(self, n):
        assert factorize(n) == self._trial_division(n)

    @given(st.integers(2, 2**63 - 1))
    @example(1009**2)
    @example(1009**3)
    @example((10**9 + 7) ** 2)
    @example((10**6 + 3) ** 3)
    @example((2**31 - 1) * (2**31 + 11))
    @example(2**61 - 1)
    @example(2**62 - 1)
    @settings(max_examples=100, deadline=None)
    def test_large_values_are_complete(self, n):
        fac = factorize(n)
        ps = [p for p, _ in fac]
        assert math.prod(p**e for p, e in fac) == n
        assert all(is_prime(p) for p in ps)
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_prime_powers_past_trial_bound(self):
        assert factorize(1009**3) == ((1009, 3),)
        assert factorize((10**9 + 7) ** 2) == ((10**9 + 7, 2),)

    def test_cofactor_beyond_witness_range_raises(self):
        # no factor <= 1000 and a cofactor past is_prime's proven bound
        n = (10**9 + 7) ** 2 * (10**9 + 9)
        with pytest.raises(ValueError, match=str(n)):
            factorize(n)

    def test_range_errors_are_typed(self):
        # one ValueError subclass, which solve turns into an Error record
        with pytest.raises(PrimalityRangeError, match="^factorize: cofactor "):
            factorize((10**9 + 7) ** 2 * (10**9 + 9))
        with pytest.raises(PrimalityRangeError, match="^is_prime: "):
            is_prime(4835703278458516698824713)

    def test_small_factors_bring_cofactor_into_range(self):
        n = 2**10 * 997**5 * (2**61 - 1)
        assert n > 3_317_044_064_679_887_385_961_981
        assert factorize(n) == ((2, 10), (997, 5), (2**61 - 1, 1))


class TestScreens:
    def test_matches_a_sieve(self):
        flags = bytearray(b"\x01") * 1001
        for p in range(2, 32):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * ((1000 - p * p) // p + 1)
        odd = tuple(p for p in range(3, 1001) if flags[p])
        odd_3_mod_4 = tuple(p for p in odd if p % 4 == 3)
        assert odd[:4] == (3, 5, 7, 11) and odd[-1] == 997 and len(odd) == 167
        assert _screens() == (odd, math.prod(odd), odd_3_mod_4, math.prod(odd_3_mod_4))

    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    @example(2**40 * 3**5, 6)
    @example(7**9, 7)
    @example(1009**2, math.prod(_screens()[0]))
    @example(12, 1)
    @settings(max_examples=300, deadline=None)
    def test_coprime_part(self, a, b):
        got = _coprime_part(a, b)
        assert a % got == 0
        assert math.gcd(got, b) == 1
        # every prime of what was taken out divides b
        rest = a // got
        assert rest == 1 or all(b % p == 0 for p, _ in factorize(rest))


class TestIsPrime:
    @pytest.mark.parametrize(
        "n,want",
        [(73, True), (1, False), (0, False), (2, True), (5329, False), (999983, True)],
    )
    def test_examples(self, n, want):
        assert is_prime(n) is want

    def test_agrees_with_sieve_up_to_1e6(self):
        limit = 10**6
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * ((limit - p * p) // p + 1)
        mismatches = [n for n in range(limit + 1) if is_prime(n) != bool(flags[n])]
        assert mismatches == []

    def test_beyond_witness_range_raises(self):
        # first candidate past the proven bound with no factor <= 1000
        n = 3_317_044_064_679_887_385_961_981
        small = primes_up_to(1000)
        while any(n % p == 0 for p in small):
            n += 1
        with pytest.raises(ValueError):
            is_prime(n)

    def test_large_64bit_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62 - 1)

    def test_strong_pseudoprime_to_the_primes_up_to_37(self):
        # the least one (Sorenson & Webster 2017), below the proven bound:
        # Miller-Rabin by the primes up to 37 alone calls it prime
        p, q = 399165290221, 798330580441
        n = p * q
        assert n == 318665857834031151167461 and n < 3_317_044_064_679_887_385_961_981
        assert is_prime(p) and is_prime(q) and not is_prime(n)
        assert factorize(n) == ((p, 1), (q, 1))


class TestUnitSum:
    @pytest.mark.parametrize(
        "xs,num,den",
        [
            ([3, 6, 14], 4, 7),
            ([2, 2], 1, 1),
            ([20, 210, 30660], 4, 73),
            ([2, 10], 3, 5),
            ([5], 1, 5),
        ],
    )
    def test_examples(self, xs, num, den):
        assert unit_sum(xs) == Fraction(num, den)
        assert sum(PyFraction(1, x) for x in xs) == PyFraction(num, den)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            unit_sum([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            unit_sum([3, 0])

    def test_overflow_propagates(self):
        with pytest.raises(CheckedOverflowError):
            unit_sum([2**80, 2**80 - 1])

    def test_intermediates_stay_at_lcm_size(self):
        # the exact sum's denominator has 125 bits; a running product of
        # the parts would pass 2**127 long before the end
        xs = [241, 21960, 50867, 58643, 388237, 579539, 674771, 70986]
        got = unit_sum(xs)
        want = sum(PyFraction(1, x) for x in xs)
        assert (got.num, got.den) == (want.numerator, want.denominator)

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8), st.randoms())
    @example(
        xs=[241, 21960, 50867, 58643, 388237, 579539, 674771, 70986],
        rng=random.Random(0),
    )
    def test_permutation_invariant(self, xs, rng):
        # Every intermediate is at most len(xs) * lcm(xs), so below 2**127
        # no order may overflow.  Above it an order may overflow, but any
        # order that returns must return the exact sum.
        shuffled = list(xs)
        rng.shuffle(shuffled)
        if len(xs) * math.lcm(*xs) < 2**127:
            assert unit_sum(xs) == unit_sum(shuffled)
            return
        want = sum(PyFraction(1, x) for x in xs)
        for order in (xs, shuffled):
            try:
                got = unit_sum(order)
            except CheckedOverflowError:
                continue
            assert (got.num, got.den) == (want.numerator, want.denominator)

    @given(st.lists(st.integers(1, 10**4), min_size=1, max_size=6))
    def test_matches_stdlib_fractions(self, xs):
        got = unit_sum(xs)
        want = sum(PyFraction(1, x) for x in xs)
        assert (got.num, got.den) == (want.numerator, want.denominator)
