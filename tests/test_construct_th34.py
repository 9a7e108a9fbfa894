from fractions import Fraction as PyFraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourovern.construct_th34 import (
    DEFAULT_K_BOUND,
    HypothesisViolation,
    Th3Params,
    _m_candidates,
    theorem3_construct,
    theorem3_search,
    theorem4_construct,
    theorem4_search,
)
from fourovern.core_arith import divisors, factorize
from fourovern.triples import ConstructionError


def check_exact(triple, n):
    assert sum(PyFraction(1, x) for x in triple.values) == PyFraction(4, n)
    assert triple.x1 < triple.x2 < triple.x3


def has_divisor_3_mod_4(n):
    return n > 1 and any(p % 4 == 3 for p, _ in factorize(n))


def hypothesis_free(n):
    return n % 2 == 1 and not has_divisor_3_mod_4(n)


class TestHasDivisor3Mod4:
    # the predicate that picks hypothesis-free n above, against its definition
    @pytest.mark.parametrize(
        "n,want",
        [(1, False), (3, True), (5, False), (15, True), (25, False), (73, False), (21, True), (2, False)],
    )
    def test_examples(self, n, want):
        assert has_divisor_3_mod_4(n) is want

    def test_matches_divisor_scan(self):
        for n in range(1, 500):
            want = any(d % 4 == 3 for d in divisors(n))
            assert has_divisor_3_mod_4(n) is want, n


class TestTh3Params:
    def test_from_divisor_k_m(self):
        w = Th3Params.from_divisor_k_m(5, 1, 3)
        assert w == Th3Params(delta=5, k=1, m=3, a=2, t=1)

    def test_no_qualifying_m(self):
        # delta + k = 2 has no divisor congruent to 3 mod 4
        with pytest.raises(HypothesisViolation):
            Th3Params.from_divisor_k_m(1, 1, 3)

    def test_wrong_m_residue(self):
        with pytest.raises(HypothesisViolation):
            Th3Params.from_divisor_k_m(5, 4, 9)


class TestTheorem3Construct:
    def test_worked_witness(self):
        t = theorem3_construct(25, Th3Params(5, 1, 3, 2, 1))
        assert t.values == (10, 25, 50)
        check_exact(t, 25)

    def test_second_witness_same_triple(self):
        # delta=25, k=5, m=3 gives a=10, t=1 and the parts 50, 10, 25
        t = theorem3_construct(25, Th3Params(25, 5, 3, 10, 1))
        assert t.values == (10, 25, 50)

    @pytest.mark.parametrize(
        "n,w",
        [
            (10, Th3Params(5, 1, 3, 2, 1)),       # n even
            (25, Th3Params(3, 1, 3, 2, 1)),       # delta does not divide n
            (25, Th3Params(5, 2, 7, 1, 2)),       # k even
            (25, Th3Params(5, 1, 9, 2, 1)),       # m wrong residue
            (25, Th3Params(5, 1, 3, 3, 1)),       # a*m != delta + k
            (25, Th3Params(5, 1, 3, 2, 2)),       # t != (m+1)/4
            (25, Th3Params(5, 3, 3, 2, 1)),       # a*m != delta + k (k=3)
            (73, Th3Params(1, 7, 3, 2, 1)),       # a*m = 6 but delta + k = 8
        ],
    )
    def test_hypothesis_violations(self, n, w):
        with pytest.raises(HypothesisViolation):
            theorem3_construct(n, w)

    def test_congruence_violation(self):
        # delta=1, k=5, m=3 over n=13: a*t*n = 26, not divisible by 5
        with pytest.raises(HypothesisViolation):
            theorem3_construct(13, Th3Params(1, 5, 3, 2, 1))

    def test_distinctness_failure_is_construction_error(self):
        # n=3 breaks the no-divisor-3-mod-4 hypothesis and the parts collide
        with pytest.raises(ConstructionError):
            theorem3_construct(3, Th3Params(3, 3, 3, 2, 1))

    def test_validates_outside_hypothesis(self):
        # n=15 has divisors 3 and 15 congruent to 3 mod 4; the witness still works
        t = theorem3_construct(15, Th3Params(5, 1, 3, 2, 1))
        check_exact(t, 15)


class TestTheorem3Search:
    def test_square(self):
        triple, w = theorem3_search(25, 99)
        assert triple.values == (10, 25, 50)
        assert w == Th3Params(1, 5, 3, 2, 1)

    def test_five(self):
        triple, w = theorem3_search(5, 99)
        assert triple.values == (2, 5, 10)
        assert w == Th3Params(1, 5, 3, 2, 1)

    def test_hard_prime_low_bound(self):
        # first witness in scan order: delta=73, k=5, m=39 (a=2, t=10)
        triple, w = theorem3_search(73, 99)
        assert w == Th3Params(73, 5, 39, 2, 10)
        assert triple.values == (20, 292, 730)
        check_exact(triple, 73)

    def test_hard_prime_default_bound(self):
        triple, w = theorem3_search(73, 999)
        assert w == Th3Params(1, 219, 11, 20, 3)
        assert triple.values == (20, 219, 4380)
        check_exact(triple, 73)

    def test_exhaustion_is_none(self):
        # no odd k <= 3 admits a witness for 73
        assert theorem3_search(73, 3) is None

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            theorem3_search(10, 99)

    def test_witness_replay(self):
        for n in [5, 13, 25, 65, 73, 85, 97, 145]:
            found = theorem3_search(n, 999)
            if found is None:
                continue
            triple, w = found
            assert theorem3_construct(n, w) == triple


@lru_cache(maxsize=None)
def brute_m_list(s):
    """Divisors of s that are 3 mod 4, ascending, by trying every candidate."""
    return [m for m in range(3, s + 1, 4) if s % m == 0]


def divisor_m_list(s):
    return [m for m in divisors(s) if m % 4 == 3]


class TestMCandidates:
    def test_matches_brute_force(self):
        for s in range(1, 20_001):
            assert list(_m_candidates(s)) == brute_m_list(s), s

    @pytest.mark.parametrize(
        "s,want",
        [
            (2**40, ()),
            (3**12, tuple(3**i for i in range(1, 13, 2))),
            (2**7 * 3**5, (3, 27, 243)),
            (7**2 * 11, (7, 11, 539)),
            (2**3 * 7**2 * 11, (7, 11, 539)),
            (1009 * 1013, ()),                       # both 1 (mod 4)
            (5**3 * 1009 * 1013 * 2**5, ()),
            (1019, (1019,)),                          # prime 3 (mod 4) above 1000
            (2 * 1019 * 1031, (1019, 1031)),         # 1019 * 1031 is 1 (mod 4)
            (1009 * 1019, (1019, 1009 * 1019)),
            (3 * 1009 * 1019, (3, 1019, 3 * 1009, 1009 * 1019)),
            ((10**9 + 7) * 4, (10**9 + 7,)),         # 10**9 + 7 is 3 (mod 4)
        ],
    )
    def test_known_factorizations(self, s, want):
        assert _m_candidates(s) == want


def unpruned_theorem3_search(n, k_bound, m_list=brute_m_list):
    """The full delta, k, m scan that theorem3_search prunes: every odd k.

    Its m come from m_list: a brute-force divisor scan by default, so the
    reference does not share the factorizer behind _m_candidates.
    """
    for delta in divisors(n):
        for k in range(1, k_bound + 1, 2):
            for m in m_list(delta + k):
                a = (delta + k) // m
                t = (m + 1) // 4
                if a * t * n % k:
                    continue
                w = Th3Params(delta, k, m, a, t)
                try:
                    return theorem3_construct(n, w), w
                except ConstructionError:
                    continue
    return None


class TestPrunedScanMatchesFullScan:
    @pytest.mark.parametrize("k_bound", [1, 2, 3, 7, 25, 101, 999])
    def test_small_odd_n(self, k_bound):
        for n in range(3, 3002, 2):
            assert theorem3_search(n, k_bound) == unpruned_theorem3_search(n, k_bound), n

    # hard primes, and n = 3, whose delta=3, k=3, m=3 witness collides
    # (ConstructionError) before the scan goes on and ends in None
    @pytest.mark.parametrize("k_bound", [1, 3, 99, 999])
    @pytest.mark.parametrize("n", [3, 73, 97, 193])
    def test_hard_primes_and_three(self, n, k_bound):
        assert theorem3_search(n, k_bound) == unpruned_theorem3_search(n, k_bound)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12 // 2 - 1))
    def test_large_odd_n(self, half):
        n = 2 * half + 1
        # brute force over delta + k up to 1e12 is infeasible, so m comes from divisors
        assert theorem3_search(n) == unpruned_theorem3_search(n, DEFAULT_K_BOUND, divisor_m_list)


class TestTheorem4:
    def test_construct_square(self):
        triple, w = theorem4_construct(25, 5, 1)
        assert triple.values == (10, 25, 50)
        assert w.m == 3 and w.k == 1

    def test_construct_no_m(self):
        assert theorem4_construct(73, 73, 1) is None  # 74 = 2 * 37
        assert theorem4_construct(5, 1, 1) is None    # 2 has no such divisor

    def test_construct_bad_divisors(self):
        with pytest.raises(HypothesisViolation):
            theorem4_construct(25, 3, 1)

    def test_search_square(self):
        triple, w = theorem4_search(25)
        assert triple.values == (10, 25, 50)
        assert (w.delta, w.k, w.m) == (1, 5, 3)  # first pair is (delta=1, d=5)

    def test_search_thirteen(self):
        triple, w = theorem4_search(13)
        assert triple.values == (4, 26, 52)
        assert (w.delta, w.k, w.m) == (1, 13, 7)

    def test_search_exhausted(self):
        assert theorem4_search(73) is None  # pair sums 2, 74, 146 have no 3 mod 4 divisor

    def test_search_replay(self):
        for n in [5, 13, 25, 65, 97, 145, 169]:
            found = theorem4_search(n)
            if found is None:
                continue
            triple, w = found
            assert w.k in divisors(n)
            rebuilt = theorem3_construct(n, w)
            assert rebuilt.values == triple.values

    def test_th4_witness_accepted_by_th3_machinery(self):
        # a theorem4 witness is a theorem3 witness with k = d; the bounded
        # theorem3 search must also succeed whenever theorem4 does
        for n in range(3, 601, 2):
            if not hypothesis_free(n):
                continue
            found4 = theorem4_search(n)
            if found4 is None:
                continue
            triple4, w4 = found4
            rebuilt = theorem3_construct(n, w4)
            assert rebuilt.values == triple4.values
            assert theorem3_search(n, max(999, n)) is not None


class TestDistinctnessArgument:
    def test_no_validated_witness_trips_the_guard(self):
        # over every odd n <= 2000 with no divisor 3 mod 4, every witness
        # that satisfies the congruence must construct a distinct triple
        for n in range(3, 2001, 2):
            if not hypothesis_free(n):
                continue
            for delta in divisors(n):
                for k in range(1, 100, 2):
                    s = delta + k
                    for m in (m for m in divisors(s) if m % 4 == 3):
                        a = s // m
                        t = (m + 1) // 4
                        if (a * t * n) % k:
                            continue
                        triple = theorem3_construct(n, Th3Params(delta, k, m, a, t))
                        assert triple.x1 < triple.x2 < triple.x3
