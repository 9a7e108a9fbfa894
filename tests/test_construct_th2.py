from fractions import Fraction as PyFraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourovern.construct_th2 import (
    lift_by_cofactor,
    path_3mod4,
    path_even,
    path_mod3_0,
    path_mod3_2,
    path_prime_13mod24,
    theorem2_dispatch,
)
from fourovern.core_arith import Fraction, factorize
from fourovern.triples import Method


def check_exact(triple):
    got = sum(PyFraction(1, x) for x in triple.values)
    assert got == PyFraction(triple.target_num, triple.target_den)
    assert triple.x1 < triple.x2 < triple.x3


class TestPathEven:
    def test_ten(self):
        t = path_even(10)
        assert t.values == (5, 6, 30)
        check_exact(t)

    def test_six(self):
        assert path_even(6).values == (3, 4, 12)

    def test_two_inapplicable(self):
        assert path_even(2) is None  # collapses to 1/1 + 1/2 + 1/2

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            path_even(7)


class TestPathMod3Is2:
    def test_five(self):
        assert path_mod3_2(5).values == (2, 5, 10)

    def test_eleven(self):
        t = path_mod3_2(11)
        assert t.values == (4, 11, 44)
        check_exact(t)

    def test_two_inapplicable(self):
        assert path_mod3_2(2) is None  # x2 == x3 == 2

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError):
            path_mod3_2(7)


class TestPathMod3Is0:
    def test_nine(self):
        t = path_mod3_0(9)
        assert t.values == (4, 9, 12)
        check_exact(t)

    def test_three_and_six_inapplicable(self):
        assert path_mod3_0(3) is None
        assert path_mod3_0(6) is None

    def test_fifteen(self):
        assert path_mod3_0(15).values == (6, 15, 30)

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError):
            path_mod3_0(10)


class TestPath3Mod4:
    def test_seven(self):
        t = path_3mod4(7)
        assert t.values == (3, 6, 14)
        check_exact(t)

    def test_eleven(self):
        assert path_3mod4(11).values == (4, 12, 33)

    def test_three_inapplicable(self):
        assert path_3mod4(3) is None  # yields (2, 2, 3)

    def test_wrong_residue_rejected(self):
        with pytest.raises(ValueError):
            path_3mod4(9)

    def test_whole_residue_class_validates(self):
        for n in range(7, 4000, 4):
            t = path_3mod4(n)
            assert t is not None
            check_exact(t)


class TestPathPrime13Mod24:
    @pytest.mark.parametrize("p,want", [(13, (4, 26, 52)), (37, (10, 185, 370)), (61, (16, 488, 976))])
    def test_examples(self, p, want):
        t = path_prime_13mod24(p)
        assert t.values == want
        check_exact(t)

    @pytest.mark.parametrize("p", [73, 5, 11, 17])
    def test_wrong_residue_rejected(self, p):
        with pytest.raises(ValueError):
            path_prime_13mod24(p)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            path_prime_13mod24(85)  # 85 = 13 (mod 24) but 85 = 5 * 17


class TestLiftByCofactor:
    def test_lift_five(self):
        base = path_mod3_2(5)
        lifted = lift_by_cofactor(base, 5)
        assert lifted.values == (10, 25, 50)
        assert (lifted.target_num, lifted.target_den) == (4, 25)
        assert lifted.method is Method.PRIME_LIFT
        check_exact(lifted)

    def test_identity_lift(self):
        base = path_3mod4(7)
        assert lift_by_cofactor(base, 1) is base

    def test_lift_seven(self):
        lifted = lift_by_cofactor(path_3mod4(7), 7)
        assert lifted.values == (21, 42, 98)
        assert (lifted.target_num, lifted.target_den) == (4, 49)
        check_exact(lifted)

    def test_nonpositive_cofactor_rejected(self):
        with pytest.raises(ValueError):
            lift_by_cofactor(path_even(10), 0)

    @given(st.integers(4, 500), st.integers(1, 40))
    @settings(deadline=None)
    def test_lift_preserves_validity(self, n, c):
        dispatched = theorem2_dispatch(n)
        if dispatched is None:
            return
        lifted = lift_by_cofactor(dispatched[0], c)
        got = sum(PyFraction(1, x) for x in lifted.values)
        assert got == PyFraction(4, n * c)
        assert lifted.x1 < lifted.x2 < lifted.x3


class TestDispatch:
    def test_lifted_square(self):
        triple, method = theorem2_dispatch(25)
        assert triple.values == (10, 25, 50)
        assert method is Method.PRIME_LIFT

    def test_prime_13_mod_24(self):
        triple, method = theorem2_dispatch(13)
        assert triple.values == (4, 26, 52)
        assert method is Method.PRIME_13_MOD_24

    @pytest.mark.parametrize("n", [73, 2, 3])
    def test_unreachable(self, n):
        assert theorem2_dispatch(n) is None

    def test_priority_order(self):
        assert theorem2_dispatch(7)[1] is Method.MOD4_IS_3
        assert theorem2_dispatch(10)[1] is Method.EVEN
        assert theorem2_dispatch(5)[1] is Method.MOD3_IS_2
        assert theorem2_dispatch(9)[1] is Method.MOD3_IS_0

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            theorem2_dispatch(1)

    def test_completeness_both_directions(self):
        # succeeds exactly when some prime divisor is not 1 (mod 24)
        for n in range(4, 3001):
            reachable = any(p % 24 != 1 for p, _ in factorize(n))
            dispatched = theorem2_dispatch(n)
            if reachable:
                assert dispatched is not None, n
                check_exact(dispatched[0])
                assert dispatched[0].target == Fraction(4, n)
            else:
                assert dispatched is None, n
