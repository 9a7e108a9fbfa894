"""Regression tests for solve() far past sweep scale.

One n per residue class mod 24 at each of 1e10 ... 1e18, a hard prime
above 1e18 and a balanced semiprime that is slow to split.  Every record
must be Solved with a triple checked by stdlib fractions, the whole set
must finish within a stated bound, and none of it may grow the cached
prime sieve.
"""

import time
from fractions import Fraction as PyFraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourovern import core_arith
from fourovern.construct_th2 import theorem2_dispatch
from fourovern.core_arith import factorize, is_prime
from fourovern.sweep import Status, classify_hard, solve

FIRST_HARD_PRIME_PAST_1E18 = 10**18 + 9
SLOW_SEMIPRIME = (2**31 - 1) * (2**31 + 11)

LARGE_N = [10**e + r for e in (10, 12, 14, 16, 18) for r in range(24)] + [
    FIRST_HARD_PRIME_PAST_1E18,
    SLOW_SEMIPRIME,
]

BOUND_S = 10


@pytest.fixture(scope="module")
def solved():
    sieve_before = core_arith._sieve_limit
    t0 = time.perf_counter()
    records = {n: solve(n) for n in LARGE_N}
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(records=records, elapsed=elapsed, sieve_before=sieve_before)


class TestLargeN:
    def test_fixed_inputs(self):
        p = FIRST_HARD_PRIME_PAST_1E18
        # the first n = 1 (mod 24) above 1e18 is already prime
        assert p % 24 == 1 and p - 24 < 10**18 and is_prime(p)
        assert is_prime(2**31 - 1) and is_prime(2**31 + 11)

    @pytest.mark.parametrize("n", LARGE_N)
    def test_solved_and_exact(self, solved, n):
        rec = solved.records[n]
        assert rec.status is Status.SOLVED, rec.detail
        assert rec.x1 < rec.x2 < rec.x3
        assert PyFraction(1, rec.x1) + PyFraction(1, rec.x2) + PyFraction(1, rec.x3) == PyFraction(4, n)

    def test_hard_flags(self, solved):
        records = solved.records
        assert records[FIRST_HARD_PRIME_PAST_1E18].hard
        assert all(not rec.hard for n, rec in records.items() if n % 24 != 1)
        assert all(rec.hard == classify_hard(n) for n, rec in records.items())

    def test_within_bound(self, solved):
        assert solved.elapsed < BOUND_S, f"{len(LARGE_N)} solves took {solved.elapsed:.2f}s"

    def test_sieve_not_grown(self, solved):
        assert core_arith._sieve_limit <= max(solved.sieve_before, 1 << 16)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=4, max_value=2**63 - 1))
def test_dispatch_never_overflows_below_2_63(n):
    # no CheckedOverflowError: a closed form or a lifted one fits, or n is hard
    found = theorem2_dispatch(n)
    if found is None:
        assert all(p % 24 == 1 for p, _ in factorize(n))
        return
    triple, _ = found
    assert triple.x3 < 2**127
    assert PyFraction(1, triple.x1) + PyFraction(1, triple.x2) + PyFraction(1, triple.x3) == PyFraction(4, n)
