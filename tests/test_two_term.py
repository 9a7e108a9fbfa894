import os
import subprocess
import sys
from fractions import Fraction as PyFraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourovern
from fourovern.two_term import TwoTermSolution, enumerate_two_term, solve_two_term

# independent of the package's own primality test
PRIMES_TO_200 = [p for p in range(2, 201) if all(p % d for d in range(2, p))]


class TestSolveTwoTerm:
    def test_divisible_case(self):
        assert solve_two_term(3, 5).values == (2, 10)
        assert PyFraction(1, 2) + PyFraction(1, 10) == PyFraction(3, 5)

    def test_not_divisible(self):
        assert solve_two_term(3, 7) is None  # 3 does not divide 8

    def test_unit_numerator(self):
        assert solve_two_term(1, 4).values == (5, 20)

    def test_p_one_collapses(self):
        assert solve_two_term(1, 1) is None
        assert solve_two_term(2, 1) is None

    @pytest.mark.parametrize("q,p", [(0, 5), (3, 0), (-1, 2)])
    def test_rejects_nonpositive(self, q, p):
        with pytest.raises(ValueError):
            solve_two_term(q, p)

    def test_wrong_sum_raises_under_optimize(self):
        # the exact-sum check must survive python -O, which strips asserts
        src = str(Path(fourovern.__file__).resolve().parent.parent)
        code = (
            "import fourovern.two_term as tt\n"
            "from fourovern.core_arith import Fraction\n"
            "tt.unit_sum = lambda xs: Fraction(1, 1)\n"
            "tt.solve_two_term(3, 5)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 1
        assert "fourovern.triples.ConstructionError: 1/2 + 1/10 does not sum to 3/5" in proc.stderr


class TestEnumerateTwoTerm:
    def test_window_misses(self):
        assert enumerate_two_term(3, 7, True) == []

    def test_window_hits(self):
        assert [s.values for s in enumerate_two_term(3, 5, True)] == [(2, 10)]

    def test_repeats_allowed(self):
        assert [s.values for s in enumerate_two_term(2, 3, False)] == [(2, 6), (3, 3)]
        assert [s.values for s in enumerate_two_term(2, 3, True)] == [(2, 6)]

    def test_target_above_two_is_empty(self):
        assert enumerate_two_term(7, 3, False) == []
        assert enumerate_two_term(5, 2, True) == []

    def test_unreduced_target(self):
        assert [s.values for s in enumerate_two_term(2, 4, True)] == [(3, 6)]

    @given(st.integers(1, 60), st.integers(1, 60), st.booleans())
    @settings(deadline=None)
    def test_soundness_and_order(self, q, p, distinct):
        sols = enumerate_two_term(q, p, distinct)
        for s in sols:
            assert PyFraction(1, s.x1) + PyFraction(1, s.x2) == PyFraction(q, p)
            assert s.x1 < s.x2 if distinct else s.x1 <= s.x2
        assert [s.x1 for s in sols] == sorted(s.x1 for s in sols)

    @given(st.integers(1, 100), st.integers(1, 100))
    @settings(deadline=None)
    def test_agreement_with_constructor(self, q, p):
        constructed = solve_two_term(q, p)
        if constructed is not None:
            assert constructed in enumerate_two_term(q, p, True)


class TestCharacterizationForPrimes:
    def test_iff_and_uniqueness(self):
        # for prime p the constructor is complete and the solution unique
        for p in PRIMES_TO_200:
            for q in range(1, p + 2):
                sols = enumerate_two_term(q, p, True)
                if (p + 1) % q == 0:
                    assert len(sols) == 1
                    assert sols[0].values == ((p + 1) // q, p * (p + 1) // q)
                    assert sols[0] == solve_two_term(q, p)
                else:
                    assert sols == []
                    assert solve_two_term(q, p) is None


class TestTwoTermSolutionType:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            TwoTermSolution(10, 2)
        with pytest.raises(ValueError):
            TwoTermSolution(0, 5)
