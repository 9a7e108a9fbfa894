"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values are exact; wherever a criterion asks for validation the
check is done against stdlib fractions, independent of the package's own
rational arithmetic.  Run with -s to see the per-criterion lines.
"""

import hashlib
import time
from fractions import Fraction as PyFraction

from fourovern.construct_th2 import theorem2_dispatch
from fourovern.construct_th34 import theorem3_search, theorem4_search
from fourovern.core_arith import Fraction, factorize, unit_sum
from fourovern.oracle import enumerate_three_term, first_solution
from fourovern.sweep import Status, classify_hard, emit_report, solve, sweep_range
from fourovern.triples import Method
from fourovern.two_term import enumerate_two_term, solve_two_term

from naive import enumerate_three_term_naive

# sha256 of the CSV report for the sweep [3, 1e5]
REFERENCE_CSV_SHA256 = "d1f31791d74d27be4043b84607ec2c5aeddc235e19853061768463ff1f491436"

PRIMES_TO_500 = [p for p in range(2, 501) if all(p % d for d in range(2, p))]


def report(name, elapsed, bound):
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.3f}s, bound {bound}s)")


def exact(values, num, den):
    assert sum(PyFraction(1, x) for x in values) == PyFraction(num, den)


def test_criterion_1_constructive_formula_suite():
    # warm-up so the timed runs measure arithmetic, not sieve initialization
    unit_sum([2, 10])
    checks = [
        ((2, 10), 3, 5, lambda: solve_two_term(3, 5).values),
        ((3, 6, 14), 4, 7, lambda: theorem2_dispatch(7)[0].values),
        ((4, 26, 52), 4, 13, lambda: theorem2_dispatch(13)[0].values),
    ]
    worst = 0.0
    for values, num, den, construct in checks:
        t0 = time.perf_counter()
        assert unit_sum(values) == Fraction(num, den)
        worst = max(worst, time.perf_counter() - t0)
        assert construct() == values
        exact(values, num, den)
    assert worst < 1e-3, f"identity check took {worst:.6f}s"
    report("criterion 1 (worked identities, exact)", worst, 0.001)


def test_criterion_2_theorem1_characterization():
    t0 = time.perf_counter()
    for p in PRIMES_TO_500:
        for q in range(1, p + 2):
            sols = enumerate_two_term(q, p, True)
            if (p + 1) % q == 0:
                assert len(sols) == 1, (q, p)
                assert sols[0].values == ((p + 1) // q, p * (p + 1) // q)
                assert sols[0] == solve_two_term(q, p)
                exact(sols[0].values, q, p)
            else:
                assert sols == [], (q, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report("criterion 2 (two-term characterization, primes <= 500)", elapsed, 10)


def test_criterion_3_theorem2_contrapositive():
    t0 = time.perf_counter()
    unreached = []
    for n in range(4, 10_001):
        reachable = any(p % 24 != 1 for p, _ in factorize(n))
        got = theorem2_dispatch(n)
        if reachable:
            if got is None:
                unreached.append(n)
                continue
            triple = got[0]
            exact(triple.values, 4, n)
            assert triple.x1 < triple.x2 < triple.x3
        else:
            assert got is None, n
    assert unreached == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report("criterion 3 (dispatch covers [4, 1e4] outside the hard class)", elapsed, 30)


def test_criterion_4_hard_class_behavior():
    t0 = time.perf_counter()
    hard = [n for n in range(2, 10_001) if classify_hard(n)]  # regenerated, never tabulated
    assert hard, "expected hard cases below 1e4"
    assert 73 in hard and 5329 in hard
    for n in hard:
        assert n % 24 == 1
        rec = solve(n)
        assert rec.status is Status.SOLVED
        assert rec.method in (Method.THEOREM_4, Method.THEOREM_3_SEARCH, Method.ORACLE)
        exact((rec.x1, rec.x2, rec.x3), 4, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(f"criterion 4 (hard class <= 1e4, {len(hard)} members solved)", elapsed, 60)


def test_criterion_5_oracle_cross_validation():
    t0 = time.perf_counter()
    for n in range(2, 501):
        naive = set(enumerate_three_term_naive(4, n, False))
        mine = {t.values for t in enumerate_three_term(4, n, distinct_only=False)}
        assert mine == naive, n
        distinct = {t.values for t in enumerate_three_term(4, n, distinct_only=True)}
        assert distinct == {t for t in naive if len(set(t)) == 3}, n

        # every constructor output is a member of the enumeration
        candidates = []
        dispatched = theorem2_dispatch(n) if n >= 2 else None
        if dispatched is not None:
            candidates.append(dispatched[0])
        if n % 2 and n >= 3:
            for found in (theorem4_search(n), theorem3_search(n, 999)):
                if found is not None:
                    candidates.append(found[0])
        rec = solve(n)
        if rec.status is Status.SOLVED:
            candidates.append(rec)
        for c in candidates:
            values = c.values if hasattr(c, "values") else (c.x1, c.x2, c.x3)
            assert values in distinct, (n, values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report("criterion 5 (divisor-pair oracle == naive oracle <= 500, membership)", elapsed, 60)


def test_criterion_6_full_sweep(tmp_path):
    t0 = time.perf_counter()
    records = sweep_range(3, 100_000, workers=1)
    sweep_elapsed = time.perf_counter() - t0

    assert len(records) == 99_998
    assert all(r.status is Status.SOLVED for r in records)
    assert not any(r.status is Status.ERROR for r in records)
    assert not any(r.status is Status.NO_DISTINCT_SOLUTION for r in records)

    # byte-identical reports for 1 vs N workers over the full range
    multi = sweep_range(3, 100_000, workers=2)
    solo_report = tmp_path / "solo.csv"
    multi_report = tmp_path / "multi.csv"
    emit_report(records, solo_report)
    emit_report(multi, multi_report)
    assert solo_report.read_bytes() == multi_report.read_bytes()
    # the reference report's bytes, which also pin method attribution
    assert hashlib.sha256(solo_report.read_bytes()).hexdigest() == REFERENCE_CSV_SHA256

    # a resumed interrupted run matches an uninterrupted one
    ck = tmp_path / "sweep.csv"
    full = sweep_range(3, 100_000, checkpoint=ck)
    assert full == records
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    resumed = sweep_range(3, 100_000, checkpoint=ck)
    assert resumed == records

    assert sweep_elapsed < 300
    report(f"criterion 6 (full sweep [3, 1e5], 100% solved)", sweep_elapsed, 300)


def test_criterion_7_non_existence_at_two():
    t0 = time.perf_counter()
    rec = solve(2)
    assert rec.status is Status.NO_DISTINCT_SOLUTION
    assert first_solution(4, 2) is None  # exhaustive window scan
    repeats = enumerate_three_term(4, 2, distinct_only=False)
    assert [t.values for t in repeats] == [(1, 2, 2)]
    exact((1, 2, 2), 4, 2)

    from fourovern.cli import cli_main

    assert cli_main(["decompose", "2"]) == 1
    elapsed = time.perf_counter() - t0
    report("criterion 7 (n = 2 proven to have no distinct triple)", elapsed, 60)
