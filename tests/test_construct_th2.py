from fractions import Fraction as PyFraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourovern.construct_th2 import _FORMS, theorem2_dispatch
from fourovern.core_arith import INT128_MAX, CheckedOverflowError, Fraction, factorize
from fourovern.triples import ConstructionError, Method, make_triple


def check_exact(triple):
    got = sum(PyFraction(1, x) for x in triple.values)
    assert got == PyFraction(triple.target_num, triple.target_den)
    assert triple.x1 < triple.x2 < triple.x3


def dispatched(n, method):
    triple, got = theorem2_dispatch(n)
    assert got is triple.method is method
    check_exact(triple)
    return triple.values


def form_parts(residue, n):
    """The parts _FORMS[residue] builds for n, whether or not they are valid."""
    parts, _ = _FORMS[residue](n)
    return tuple(sorted(parts))


def priority_chain(n):
    """The closed forms tried in the fixed priority Even, Mod3Is2, Mod3Is0,
    Mod4Is3, with unbounded ints; None when none applies."""
    if n % 2 == 0:
        h = n // 2
        return (h, h + 1, h * (h + 1)), Method.EVEN
    if n % 3 == 2:
        x1 = (n + 1) // 3
        return (x1, n * x1, n), Method.MOD3_IS_2
    if n % 3 == 0:
        t = n // 3
        return (t + 1, (t + 1) * t, n), Method.MOD3_IS_0
    if n % 4 == 3:
        d = (n + 1) // 4
        return (1 + d, d * (1 + d), d * n), Method.MOD4_IS_3
    return None


class TestPathEven:
    def test_ten(self):
        assert dispatched(10, Method.EVEN) == (5, 6, 30)

    def test_six(self):
        assert dispatched(6, Method.EVEN) == (3, 4, 12)

    def test_two_inapplicable(self):
        assert form_parts(2, 2) == (1, 2, 2)  # collapses to 1/1 + 1/2 + 1/2
        assert theorem2_dispatch(2) is None

    def test_odd_rejected(self):
        # the Even form is never chosen for odd n
        assert all(_FORMS[r] is not _FORMS[0] for r in range(1, 12, 2))
        assert theorem2_dispatch(7)[1] is Method.MOD4_IS_3


class TestPathMod3Is2:
    def test_five(self):
        assert dispatched(5, Method.MOD3_IS_2) == (2, 5, 10)

    def test_eleven(self):
        assert dispatched(11, Method.MOD3_IS_2) == (4, 11, 44)

    def test_two_inapplicable(self):
        assert form_parts(5, 2) == (1, 2, 2)  # x2 == x3 == 2
        assert theorem2_dispatch(2) is None

    def test_wrong_residue_rejected(self):
        # n = 7 is 1 (mod 3): another form, never Mod3Is2
        assert theorem2_dispatch(7)[1] is not Method.MOD3_IS_2


class TestPathMod3Is0:
    def test_nine(self):
        assert dispatched(9, Method.MOD3_IS_0) == (4, 9, 12)

    def test_three_and_six_inapplicable(self):
        assert form_parts(3, 3) == (2, 2, 3)
        assert form_parts(3, 6) == (3, 6, 6)
        assert theorem2_dispatch(3) is None
        assert theorem2_dispatch(6)[1] is Method.EVEN

    def test_fifteen(self):
        assert dispatched(15, Method.MOD3_IS_0) == (6, 15, 30)

    def test_wrong_residue_rejected(self):
        assert theorem2_dispatch(10)[1] is Method.EVEN


class TestPath3Mod4:
    def test_seven(self):
        assert dispatched(7, Method.MOD4_IS_3) == (3, 6, 14)

    def test_eleven(self):
        # 11 takes Mod3Is2 first; the Mod4Is3 form gives (4, 12, 33)
        assert form_parts(7, 11) == (4, 12, 33)
        check_exact(make_triple(form_parts(7, 11), 4, 11, Method.MOD4_IS_3))

    def test_three_inapplicable(self):
        assert form_parts(7, 3) == (2, 2, 3)
        assert theorem2_dispatch(3) is None

    def test_wrong_residue_rejected(self):
        assert theorem2_dispatch(9)[1] is Method.MOD3_IS_0

    def test_whole_residue_class_validates(self):
        # the form holds for every n = 3 (mod 4) from 7, not only those it is chosen for
        for n in range(7, 4000, 4):
            check_exact(make_triple(form_parts(7, n), 4, n, Method.MOD4_IS_3))


class TestPathPrime13Mod24:
    @pytest.mark.parametrize("p,want", [(13, (4, 26, 52)), (37, (10, 185, 370)), (61, (16, 488, 976))])
    def test_examples(self, p, want):
        assert dispatched(p, Method.PRIME_13_MOD_24) == want

    @pytest.mark.parametrize("p", [73, 5, 11, 17])
    def test_wrong_residue_rejected(self, p):
        got = theorem2_dispatch(p)
        assert got is None or got[1] is not Method.PRIME_13_MOD_24

    def test_composite_rejected(self):
        # 85 = 13 (mod 24) but 85 = 5 * 17: lifted from 5, not the prime-13 form
        assert dispatched(85, Method.PRIME_LIFT) == (34, 85, 170)


class TestLiftByCofactor:
    def test_lift_five(self):
        triple, method = theorem2_dispatch(25)
        assert triple.values == (10, 25, 50)
        assert (triple.target_num, triple.target_den) == (4, 25)
        assert method is triple.method is Method.PRIME_LIFT
        check_exact(triple)

    def test_identity_lift(self):
        # a prime takes its own form: cofactor 1 is no lift
        assert dispatched(37, Method.PRIME_13_MOD_24) == (10, 185, 370)

    def test_lift_seven(self):
        triple, _ = theorem2_dispatch(49)
        assert triple.values == (21, 42, 98)
        assert (triple.target_num, triple.target_den) == (4, 49)
        check_exact(triple)

    def test_lift_of_a_prime_13_form(self):
        assert dispatched(169, Method.PRIME_LIFT) == (52, 338, 676)

    def test_nonpositive_cofactor_rejected(self):
        for n in (0, -25):
            with pytest.raises(ValueError):
                theorem2_dispatch(n)

    @given(st.integers(4, 500), st.integers(1, 40))
    @settings(deadline=None)
    def test_lift_preserves_validity(self, n, c):
        if theorem2_dispatch(n) is None:
            return
        lifted = theorem2_dispatch(n * c)[0]
        got = sum(PyFraction(1, x) for x in lifted.values)
        assert got == PyFraction(4, n * c)
        assert lifted.x1 < lifted.x2 < lifted.x3


class TestTable:
    SMALL = {
        2: None, 3: None,
        4: ((2, 3, 6), Method.EVEN),
        5: ((2, 5, 10), Method.MOD3_IS_2),
        6: ((3, 4, 12), Method.EVEN),
        7: ((3, 6, 14), Method.MOD4_IS_3),
        8: ((4, 5, 20), Method.EVEN),
        9: ((4, 9, 12), Method.MOD3_IS_0),
        10: ((5, 6, 30), Method.EVEN),
        11: ((4, 11, 44), Method.MOD3_IS_2),
        12: ((6, 7, 42), Method.EVEN),
        13: ((4, 26, 52), Method.PRIME_13_MOD_24),
    }

    @pytest.mark.parametrize("n", range(2, 14))
    def test_small(self, n):
        got = theorem2_dispatch(n)
        want = self.SMALL[n]
        if want is None:
            assert got is None
            return
        assert (got[0].values, got[1]) == want
        check_exact(got[0])
        if n % 12 != 1:
            chain_parts, chain_method = priority_chain(n)
            assert (tuple(sorted(chain_parts)), chain_method) == want

    @given(st.one_of(st.integers(4, 10**6), st.integers(4, 2**64), st.integers(4, 2**70))
           .filter(lambda n: n % 12 != 1))
    @example(15)
    @example(2**63 + 3)
    @settings(deadline=None, max_examples=300)
    def test_table_is_the_priority_chain(self, n):
        parts, method = priority_chain(n)
        if max(parts) > INT128_MAX:
            with pytest.raises(CheckedOverflowError):
                theorem2_dispatch(n)
            return
        try:
            want = make_triple(parts, 4, n, method)
        except CheckedOverflowError as exc:
            # the parts fit but the exact sum's intermediates do not
            with pytest.raises(CheckedOverflowError) as info:
                theorem2_dispatch(n)
            assert str(info.value) == str(exc)
            return
        triple, got = theorem2_dispatch(n)
        assert got is method
        assert triple == want
        assert sum(PyFraction(1, x) for x in triple.values) == PyFraction(4, n)

    @pytest.mark.parametrize("n,operands", [
        (2**66, (2**65, 2**65 + 1)),
        (2**66 + 1, (2**66 + 1, (2**66 + 2) // 3)),
    ])
    def test_overflow_names_the_form_operands(self, n, operands):
        with pytest.raises(CheckedOverflowError) as info:
            theorem2_dispatch(n)
        assert info.value.op == "mul"
        assert info.value.operands == operands


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
