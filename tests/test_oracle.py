import tracemalloc
from fractions import Fraction as PyFraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourovern import core_arith, oracle
from fourovern.oracle import OracleBudgetError, enumerate_three_term, first_solution
from fourovern.construct_th2 import theorem2_dispatch
from fourovern.sweep import Status, solve
from fourovern.triples import Method

from naive import enumerate_three_term_naive


# first_solution(4, n) for each hard n up to 1e7 that solve() leaves to the oracle
ORACLE_FALLTHROUGHS = {
    409: (104, 6084, 4976712),
    577: (145, 27890, 466683370),
    5569: (1394, 1109029, 506446965082),
    9601: (2405, 1216930, 898749610),
    23929: (5984, 20455879, 172300032464032),
    83449: (20865, 158287584, 7066783219510560),
    102001: (25502, 371604238, 5894072603377009),
    167281: (41822, 999432400, 8547744544807600),
    181729: (45435, 750623380, 95350615320589980),
    230281: (57573, 1205271564, 832653423088452),
    282481: (70622, 2849915499, 1610093960146038),
    329617: (82405, 9054029630, 49185271515496732510),
    332929: (83234, 3958716220, 95060688219305980),
    404449: (101114, 5842208034, 4594610820845080737),
    712321: (178086, 5515408644, 580144146837102244),
    1134241: (283561, 107208837478, 147988002039369068966),
    1435009: (358757, 27095764414, 263196764772919075294),
    1724209: (431054, 106175312334, 1517545743058385604837),
    1726201: (431556, 32389248801, 74547138226046668),
    3292969: (823247, 156560918136, 1609313465928),
    4160641: (1040162, 618248666268, 78694702746297218608284),
    5212561: (1303143, 617519307252, 7640493702695576827004),
    6416329: (1604084, 1470332955400, 92275323157963134874600),
    7183201: (1795805, 678927805270, 309193868009723271718),
    7976809: (1994209, 589172525604, 40070666179701612),
    8813281: (2203321, 6472829035494, 447304438314532718777574),
}


def tuples(triples):
    return [t.values for t in triples]


class TestEnumerate:
    def test_hard_prime_first(self):
        got = enumerate_three_term(4, 73, distinct_only=True, limit=1)
        assert tuples(got) == [(20, 210, 30660)]

    def test_two_has_no_distinct(self):
        assert enumerate_three_term(4, 2, distinct_only=True) == []

    def test_two_with_repeats(self):
        got = enumerate_three_term(4, 2, distinct_only=False)
        assert tuples(got) == [(1, 2, 2)]

    def test_above_three_is_empty(self):
        assert enumerate_three_term(4, 1, distinct_only=False) == []
        assert enumerate_three_term(7, 2, distinct_only=False) == []

    def test_eleven_sixths_boundary(self):
        got = enumerate_three_term(11, 6, distinct_only=True)
        assert tuples(got) == [(1, 2, 3)]

    def test_limit_truncates(self):
        everything = enumerate_three_term(4, 24, distinct_only=True)
        limited = enumerate_three_term(4, 24, distinct_only=True, limit=5)
        assert limited == everything[:5]
        assert len(everything) == 45

    def test_lexicographic_order(self):
        got = tuples(enumerate_three_term(4, 35, distinct_only=True))
        assert got == sorted(got)

    def test_all_triples_exact(self):
        for n in (3, 7, 24, 35, 73):
            for t in enumerate_three_term(4, n, distinct_only=True):
                assert sum(PyFraction(1, x) for x in t.values) == PyFraction(4, n)
                assert t.method is Method.ORACLE

    def test_query_validation(self):
        with pytest.raises(ValueError):
            enumerate_three_term(0, 5)
        with pytest.raises(ValueError):
            enumerate_three_term(4, 5, distinct_only=True, limit=0)

    def test_budget_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_BUDGET", 2)
        with pytest.raises(OracleBudgetError, match="budget of 2 .* on 4/73"):
            enumerate_three_term(4, 73, distinct_only=True)

    def test_generous_budget_succeeds(self, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_BUDGET", 10**6)
        got = enumerate_three_term(4, 73, distinct_only=True, limit=1)
        assert tuples(got) == [(20, 210, 30660)]

    def test_divisors_are_spent_before_they_are_built(self, monkeypatch):
        # q = (2*3*5)**30 has 61**3 = 226,981 square divisors, about 10 MB
        # as a list; a budget below that count raises before building it
        monkeypatch.setattr(oracle, "ORACLE_BUDGET", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(OracleBudgetError):
                oracle._divisors_of_square({2: 30, 3: 30, 5: 30}, 1, oracle._Budget(1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_only_divisors_up_to_q_are_built(self):
        # of the 226,981 divisors of q*q for q = 30**30, the 113,491 up to q;
        # all of them are spent
        q = 30**30
        budget = oracle._Budget(1, 1)
        got = oracle._divisors_of_square({2: 30, 3: 30, 5: 30}, 1, budget)
        want = sorted(d for d in (2**i * 3**j * 5**k for i in range(61) for j in range(61)
                                  for k in range(61)) if d <= q)
        assert len(got) == 113_491 and got == want
        assert budget.remaining == oracle.ORACLE_BUDGET - 61**3
        # q = 2**2 * 3 / 6 = 2 after dividing out g = 6
        assert oracle._divisors_of_square({2: 2, 3: 1}, 6, budget) == [1, 2]

    def test_exhausted_budget_is_an_error_record(self, monkeypatch):
        # solve(10000849, k_bound=1) falls through to the oracle, which
        # spends 2,967 units finding its triple
        monkeypatch.setattr(oracle, "ORACLE_BUDGET", 2966)
        rec = solve(10000849, k_bound=1)
        assert rec.status is Status.ERROR and rec.hard
        assert rec.method is None and rec.x1 is None
        assert "budget of 2966" in rec.detail and "4/10000849" in rec.detail
        monkeypatch.setattr(oracle, "ORACLE_BUDGET", 2967)
        assert solve(10000849, k_bound=1).method is Method.ORACLE

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

    def test_oracle_fallthroughs(self):
        for n, values in ORACLE_FALLTHROUGHS.items():
            assert first_solution(4, n).values == values
            assert sum(PyFraction(1, x) for x in values) == PyFraction(4, n)

    def test_counts(self):
        assert len(enumerate_three_term(4, 2, distinct_only=True)) == 0
        assert len(enumerate_three_term(4, 2, distinct_only=False)) == 1
        assert len(enumerate_three_term(3, 7, distinct_only=True)) == len(
            enumerate_three_term_naive(3, 7, True))

    def test_membership_of_construction(self):
        found = tuples(enumerate_three_term(4, 7, distinct_only=True))
        assert (3, 6, 14) in found
        assert len(enumerate_three_term(4, 7, distinct_only=True)) >= 1


class TestCrossCheck:
    def test_divisor_pair_equals_naive_to_300(self):
        for n in range(2, 301):
            with_repeats = set(tuples(enumerate_three_term(4, n, distinct_only=False)))
            naive = set(enumerate_three_term_naive(4, n, False))
            assert with_repeats == naive, n
            distinct = set(tuples(enumerate_three_term(4, n, distinct_only=True)))
            assert distinct == {t for t in naive if len(set(t)) == 3}, n

    @given(st.integers(1, 8), st.integers(1, 60), st.booleans())
    @settings(deadline=None, max_examples=120)
    def test_random_targets_agree(self, a, n, distinct):
        mine = set(tuples(enumerate_three_term(a, n, distinct_only=distinct)))
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
