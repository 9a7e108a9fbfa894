from fractions import Fraction as PyFraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourovern import core_arith
from fourovern.oracle import (
    OracleBudgetError,
    OracleQuery,
    enumerate_three_term,
    first_solution,
)
from fourovern.construct_th2 import theorem2_dispatch
from fourovern.sweep import solve
from fourovern.triples import Method

from naive import enumerate_three_term_naive


def tuples(triples):
    return [t.values for t in triples]


class TestEnumerate:
    def test_hard_prime_first(self):
        got = enumerate_three_term(OracleQuery(4, 73, True, limit=1))
        assert tuples(got) == [(20, 210, 30660)]

    def test_two_has_no_distinct(self):
        assert enumerate_three_term(OracleQuery(4, 2, True)) == []

    def test_two_with_repeats(self):
        got = enumerate_three_term(OracleQuery(4, 2, False))
        assert tuples(got) == [(1, 2, 2)]

    def test_above_three_is_empty(self):
        assert enumerate_three_term(OracleQuery(4, 1, False)) == []
        assert enumerate_three_term(OracleQuery(7, 2, False)) == []

    def test_eleven_sixths_boundary(self):
        got = enumerate_three_term(OracleQuery(11, 6, True))
        assert tuples(got) == [(1, 2, 3)]

    def test_limit_truncates(self):
        everything = enumerate_three_term(OracleQuery(4, 24, True))
        limited = enumerate_three_term(OracleQuery(4, 24, True, limit=5))
        assert limited == everything[:5]
        assert len(everything) == 45

    def test_lexicographic_order(self):
        got = tuples(enumerate_three_term(OracleQuery(4, 35, True)))
        assert got == sorted(got)

    def test_all_triples_exact(self):
        for n in (3, 7, 24, 35, 73):
            for t in enumerate_three_term(OracleQuery(4, n, True)):
                assert sum(PyFraction(1, x) for x in t.values) == PyFraction(4, n)
                assert t.method is Method.ORACLE

    def test_query_validation(self):
        with pytest.raises(ValueError):
            OracleQuery(0, 5)
        with pytest.raises(ValueError):
            OracleQuery(4, 5, True, limit=0)

    def test_budget_error(self):
        with pytest.raises(OracleBudgetError):
            enumerate_three_term(OracleQuery(4, 73, True), budget=2)

    def test_generous_budget_succeeds(self):
        got = enumerate_three_term(OracleQuery(4, 73, True, limit=1), budget=10**6)
        assert tuples(got) == [(20, 210, 30660)]

    def test_large_query_leaves_the_sieve_alone(self):
        # the oracle factors n and each x by its own trial division, so a
        # hard n near 1e7 with a witness bound too small for it neither
        # grows core_arith's shared sieve to the square root of n*x nor
        # takes the memory that costs
        sieve_before = core_arith._sieve_limit
        rec = solve(10000849, k_bound=1)
        assert rec.method is Method.ORACLE
        got = PyFraction(1, rec.x1) + PyFraction(1, rec.x2) + PyFraction(1, rec.x3)
        assert got == PyFraction(4, 10000849) and rec.x1 < rec.x2 < rec.x3
        # factorize's first call builds the sieve's 2**16 floor
        assert core_arith._sieve_limit <= max(sieve_before, 1 << 16)


class TestFirstAndCount:
    def test_first_examples(self):
        assert first_solution(4, 73).values == (20, 210, 30660)
        assert first_solution(4, 3).values == (1, 4, 12)
        assert first_solution(4, 2) is None

    def test_counts(self):
        assert len(enumerate_three_term(OracleQuery(4, 2, True))) == 0
        assert len(enumerate_three_term(OracleQuery(4, 2, False))) == 1
        assert len(enumerate_three_term(OracleQuery(3, 7, True))) == len(
            enumerate_three_term_naive(3, 7, True))

    def test_membership_of_construction(self):
        found = tuples(enumerate_three_term(OracleQuery(4, 7, True)))
        assert (3, 6, 14) in found
        assert len(enumerate_three_term(OracleQuery(4, 7, True))) >= 1


class TestCrossCheck:
    def test_divisor_pair_equals_naive_to_300(self):
        for n in range(2, 301):
            with_repeats = set(tuples(enumerate_three_term(OracleQuery(4, n, False))))
            naive = set(enumerate_three_term_naive(4, n, False))
            assert with_repeats == naive, n
            distinct = set(tuples(enumerate_three_term(OracleQuery(4, n, True))))
            assert distinct == {t for t in naive if len(set(t)) == 3}, n

    @given(st.integers(1, 8), st.integers(1, 60), st.booleans())
    @settings(deadline=None, max_examples=120)
    def test_random_targets_agree(self, a, n, distinct):
        mine = set(tuples(enumerate_three_term(OracleQuery(a, n, distinct))))
        naive = set(enumerate_three_term_naive(a, n, distinct))
        assert mine == naive


class TestWindowDerivation:
    @staticmethod
    def completions_with_min(a, n, x):
        """Triples (x, y, z), y and z at least x, summing to a/n; naive style."""
        rnum = a * x - n
        if rnum <= 0:
            return []
        rden = n * x
        g = gcd(rnum, rden)
        p, q = rnum // g, rden // g
        out = []
        for y in range(x, 2 * q // p + 1):
            znum = p * y - q
            if znum <= 0:
                continue
            if (q * y) % znum == 0:
                z = q * y // znum
                if z >= y:
                    out.append((x, y, z))
        return out

    def test_no_solution_just_outside_window(self):
        for n in range(2, 301):
            lo = n // 4          # x <= n/a side
            hi = 3 * n // 4 + 1  # x > 3n/a side
            if lo >= 1:
                assert self.completions_with_min(4, n, lo) == []
            assert self.completions_with_min(4, n, hi) == []

    def test_constructions_inside_window(self):
        for n in range(4, 301):
            dispatched = theorem2_dispatch(n)
            if dispatched is None:
                continue
            x = dispatched[0].x1
            assert n // 4 < x <= 3 * n // 4
