import tracemalloc
from fractions import Fraction as PyFraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourovern.construct_th34 import (
    DEFAULT_K_BOUND,
    Th3Params,
    _least_m,
    _m_candidates,
    _m_in_class,
    theorem3_search,
    theorem4_search,
)
from fourovern.core_arith import divisors, factorize, is_prime
from fourovern.triples import ConstructionError, Method, make_triple


def check_exact(values, n):
    assert sum(PyFraction(1, x) for x in values) == PyFraction(4, n)
    assert values[0] < values[1] < values[2]


def witness_triple(n, w):
    """The sorted parts (a*t*n/k, a*t*(n/delta), t*n) of witness w for 4/n.

    Plain integers, independent of the package; every requirement on the
    witness is asserted first.
    """
    assert n > 0 and n % 2 == 1, n
    assert w.delta > 0 and n % w.delta == 0, (n, w)
    assert w.k > 0 and w.k % 2 == 1, w
    assert w.m > 0 and w.m % 4 == 3, w
    assert w.a * w.m == w.delta + w.k, w
    assert w.t == (w.m + 1) // 4, w
    at = w.a * w.t
    assert at * n % w.k == 0, (n, w)
    return tuple(sorted((at * n // w.k, at * (n // w.delta), w.t * n)))


# odd n <= 3001 and the hard n <= 1e4 (every prime factor 1 mod 24)
ODD_AND_HARD = list(range(3, 3002, 2)) + [
    n for n in range(3025, 10_001, 24) if all(p % 24 == 1 for p, _ in factorize(n))
]


def check_search_result(n, found):
    """A search's (triple, witness): the witness holds and builds the triple."""
    triple, w = found
    assert triple.values == witness_triple(n, w), (n, w)
    check_exact(triple.values, n)


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


class TestTheorem3Construct:
    """The construction from one witness, through witness_triple."""

    def test_worked_witness(self):
        values = witness_triple(25, Th3Params(5, 1, 3, 2, 1))
        assert values == (10, 25, 50)
        check_exact(values, 25)

    def test_second_witness_same_triple(self):
        # delta=25, k=5, m=3 gives a=10, t=1 and the parts 50, 10, 25
        assert witness_triple(25, Th3Params(25, 5, 3, 10, 1)) == (10, 25, 50)

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
        # each broken witness is rejected, so the replays below are not vacuous
        with pytest.raises(AssertionError):
            witness_triple(n, w)

    def test_congruence_violation(self):
        # delta=1, k=5, m=3 over n=13: a*t*n = 26, not divisible by 5
        with pytest.raises(AssertionError):
            witness_triple(13, Th3Params(1, 5, 3, 2, 1))

    def test_distinctness_failure_is_construction_error(self):
        # n=3 breaks the no-divisor-3-mod-4 hypothesis and the parts collide
        values = witness_triple(3, Th3Params(3, 3, 3, 2, 1))
        assert values == (2, 2, 3)
        with pytest.raises(ConstructionError):
            make_triple(values, 4, 3, Method.THEOREM_3_SEARCH)

    def test_validates_outside_hypothesis(self):
        # n=15 has divisors 3 and 15 congruent to 3 mod 4; the witness still works
        values = witness_triple(15, Th3Params(5, 1, 3, 2, 1))
        check_exact(values, 15)
        assert make_triple(values, 4, 15, Method.THEOREM_3_SEARCH).values == values


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
        check_exact(triple.values, 73)

    def test_hard_prime_default_bound(self):
        triple, w = theorem3_search(73, 999)
        assert w == Th3Params(1, 219, 11, 20, 3)
        assert triple.values == (20, 219, 4380)
        check_exact(triple.values, 73)

    def test_exhaustion_is_none(self):
        # no odd k <= 3 admits a witness for 73
        assert theorem3_search(73, 3) is None

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            theorem3_search(10, 99)

    def test_witness_replay(self):
        for n in ODD_AND_HARD:
            found = theorem3_search(n, 999)
            if found is None:
                continue
            check_search_result(n, found)


@lru_cache(maxsize=None)
def brute_m_list(s):
    """Divisors of s that are 3 mod 4, ascending, by trying every candidate."""
    return [m for m in range(3, s + 1, 4) if s % m == 0]


def divisor_m_list(s):
    return [m for m in divisors(s) if m % 4 == 3]


# (s, its divisors 3 mod 4): small primes, primes above 1000, and products
# of two primes 3 mod 4 above 1000, which are 1 mod 4 themselves
KNOWN_M_LISTS = [
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
    (1019**2, (1019,)),
    (4 * 1009**2, ()),
]


class TestMCandidates:
    def test_matches_brute_force(self):
        for s in range(1, 20_001):
            assert list(_m_candidates(s)) == brute_m_list(s), s

    @pytest.mark.parametrize("s,want", KNOWN_M_LISTS)
    def test_known_factorizations(self, s, want):
        assert _m_candidates(s) == want


class TestLeastM:
    def test_matches_brute_force(self):
        for s in range(1, 20_001):
            assert [_least_m(s)] == (brute_m_list(s)[:1] or [None]), s

    @pytest.mark.parametrize("s,want", KNOWN_M_LISTS)
    def test_known_factorizations(self, s, want):
        assert _least_m(s) == (want[0] if want else None)

    # 1001**2 = 7**2 * 11**2 * 13**2: odd parts below it have at most one
    # prime above 1000, and are settled by gcds; the rest are factored
    @pytest.mark.parametrize("power_of_two", [1, 2, 8])
    def test_odd_part_around_1001_squared(self, power_of_two):
        for odd in range(1001**2 - 200, 1001**2 + 201, 2):
            s = odd * power_of_two
            assert [_least_m(s)] == (divisor_m_list(s)[:1] or [None]), s


class TestMInClass:
    def test_keeps_every_passing_m(self):
        # ascending divisors of s that are 3 (mod 4), among them every m
        # with kk | a*t; kk ranges over theorem3_search's 3*kk <= s
        for s in range(3, 2001):
            ms = brute_m_list(s)
            for kk in range(1, min(s // 3, 99) + 1, 2):
                got = list(_m_in_class(s, kk))
                assert got == [m for m in ms if m in got], (s, kk, got)
                passing = [m for m in ms if s // m * ((m + 1) // 4) % kk == 0]
                assert set(passing) <= set(got), (s, kk, got)

    @pytest.mark.parametrize("kk,want", [(13, [51, 935, 3795]), (19, [759]), (31, [])])
    def test_short_class_is_exact(self, kk, want):
        # kk is a prime not dividing s, so u = kk, and the class of cofactors
        # of the odd part 64515 holds fewer than 30 values: the scan gives
        # exactly the m dividing s with m = -1 (mod 4*kk)
        s = 2 * 3 * 5 * 11 * 17 * 23
        assert [m for m in brute_m_list(s) if m % (4 * kk) == 4 * kk - 1] == want
        assert list(_m_in_class(s, kk)) == want


def unpruned_theorem3_search(n, k_bound, m_list=brute_m_list):
    """The full delta, k, m scan that theorem3_search prunes: every odd k.

    Its m come from m_list: a brute-force divisor scan by default, so the
    reference does not share the factorizer behind _m_candidates.  Returns
    the first witness with distinct parts as (parts, witness).
    """
    for delta in divisors(n):
        for k in range(1, k_bound + 1, 2):
            for m in m_list(delta + k):
                a = (delta + k) // m
                t = (m + 1) // 4
                if a * t * n % k:
                    continue
                w = Th3Params(delta, k, m, a, t)
                values = witness_triple(n, w)
                if values[0] < values[1] < values[2]:
                    return values, w
    return None


# every hard n <= 1e6 that solve() attributes to the oracle
ORACLE_FALL_THROUGHS = [
    409, 577, 5569, 9601, 23929, 83449, 102001, 167281, 181729, 230281,
    282481, 329617, 332929, 404449, 712321,
]

# every 213th prime 1 (mod 24) above 1e5: 40 hard primes below 1e6
HARD_PRIME_SAMPLE = [p for p in range(100_009, 10**6, 24) if is_prime(p)][::213][:40]


def parts_and_witness(found):
    return None if found is None else (found[0].values, found[1])


class TestPrunedScanMatchesFullScan:
    @pytest.mark.parametrize("k_bound", [1, 2, 3, 7, 25, 101, 999])
    def test_small_odd_n(self, k_bound):
        for n in range(3, 3002, 2):
            found = theorem3_search(n, k_bound)
            assert parts_and_witness(found) == unpruned_theorem3_search(n, k_bound), n

    # hard primes, and n = 3, whose delta=3, k=3, m=3 witness collides
    # (ConstructionError) before the scan goes on and ends in None
    @pytest.mark.parametrize("k_bound", [1, 3, 99, 999])
    @pytest.mark.parametrize("n", [3, 73, 97, 193])
    def test_hard_primes_and_three(self, n, k_bound):
        found = theorem3_search(n, k_bound)
        assert parts_and_witness(found) == unpruned_theorem3_search(n, k_bound)

    # the hard n <= 1e6 that theorem3_search leaves to the oracle, so each
    # scans every k <= 999, and a fixed sample of hard primes in (1e5, 1e6):
    # long scans of large sums, where most m come from the cofactor class
    @pytest.mark.parametrize("n", ORACLE_FALL_THROUGHS + HARD_PRIME_SAMPLE)
    def test_long_scans(self, n):
        assert parts_and_witness(theorem3_search(n)) == unpruned_theorem3_search(
            n, DEFAULT_K_BOUND, divisor_m_list
        )

    def test_memory_flat_in_k_bound(self):
        # n = 3 shares a factor with every third k, and no witness has distinct
        # parts, so the scan runs to k_bound; the k it visits are made lazily
        theorem3_search(3, 99)  # tables built on first use are not counted
        tracemalloc.start()
        try:
            found = theorem3_search(3, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert parts_and_witness(found) == unpruned_theorem3_search(3, 200_000, divisor_m_list)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12 // 2 - 1))
    def test_large_odd_n(self, half):
        n = 2 * half + 1
        # brute force over delta + k up to 1e12 is infeasible, so m comes from divisors
        assert parts_and_witness(theorem3_search(n)) == unpruned_theorem3_search(
            n, DEFAULT_K_BOUND, divisor_m_list
        )


class TestTheorem4:
    def test_construct_square(self):
        # the pair delta=5, d=1 of 25: the smallest m dividing 6 is 3
        m = _m_candidates(5 + 1)[0]
        assert m == 3
        assert witness_triple(25, Th3Params(5, 1, m, 6 // m, (m + 1) // 4)) == (10, 25, 50)

    def test_construct_no_m(self):
        assert _m_candidates(73 + 1) == ()  # 74 = 2 * 37
        assert _m_candidates(1 + 1) == ()   # 2 has no such divisor

    def test_search_square(self):
        triple, w = theorem4_search(25)
        assert triple.values == (10, 25, 50)
        assert (w.delta, w.k, w.m) == (1, 5, 3)  # first pair is (delta=1, d=5)

    def test_search_thirteen(self):
        triple, w = theorem4_search(13)
        assert triple.values == (4, 26, 52)
        assert (w.delta, w.k, w.m) == (1, 13, 7)

    def test_search_takes_smallest_m(self):
        # 1 + 41 = 42 has the divisors 3 and 7 that are 3 mod 4
        assert _m_candidates(42) == (3, 7)
        triple, w = theorem4_search(41)
        assert w == Th3Params(1, 41, 3, 14, 1)
        assert triple.values == (14, 41, 574)

    def test_search_exhausted(self):
        assert theorem4_search(73) is None  # pair sums 2, 74, 146 have no 3 mod 4 divisor

    def test_search_replay(self):
        for n in ODD_AND_HARD:
            found = theorem4_search(n)
            if found is None:
                continue
            assert found[1].k in divisors(n)
            check_search_result(n, found)

    def test_th4_witness_accepted_by_th3_machinery(self):
        # a theorem4 witness is a theorem3 witness with k = d; the bounded
        # theorem3 search must also succeed whenever theorem4 does
        for n in range(3, 601, 2):
            if not hypothesis_free(n):
                continue
            found4 = theorem4_search(n)
            if found4 is None:
                continue
            check_search_result(n, found4)
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
                        check_exact(witness_triple(n, Th3Params(delta, k, m, a, t)), n)
