"""Tests of the benchmark's own arithmetic and gates.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

from math import isqrt

import pytest

import gates
from spans import RAISED, RETURNED, RETURNED_NONE, Tracer, layer_metrics, self_times


def test_self_time_subtracts_children():
    # 0: [0, 10] with children 1: [1, 3] and 2: [4, 8]; 3: [5, 6] is a child of 2
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    # children [1, 5] and [3, 7] overlap; [8, 12] runs past the parent's end
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_tracer_records_nesting_outcomes_and_coverage():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x or None

    traced_leaf = tracer.wrap(leaf, "core_arith.unit_sum")

    def outer(x):
        for v in (1, 0):
            traced_leaf(v)
        with pytest.raises(ValueError):
            traced_leaf(-1)
        return x

    traced_outer = tracer.wrap(outer, "triples.make_triple")
    traced_outer(5)
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert list(tracer.outcome) == [RETURNED, RETURNED, RETURNED_NONE, RAISED]
    m = layer_metrics(tracer, wall_s=tracer.end[0] - tracer.start[0])
    assert m["core_arith.unit_sum_calls"] == 3
    assert m["core_arith.unit_sum_s"] == 3.0
    assert m["triples.make_triple_self_s"] == 7.0 - 3.0
    assert m["triples.make_triple_reject_frac"] == 0.0
    assert m["trace_coverage_frac"] == 1.0


def test_fraction_gate_accepts_a_valid_triple_and_rejects_doctored_ones():
    assert gates.triple_ok(7, 2, 15, 210)  # 4/7 = 1/2 + 1/15 + 1/210
    assert not gates.triple_ok(7, 2, 15, 211)
    assert not gates.triple_ok(4, 2, 4, 4)  # sums to 1 but repeats a part
    assert not gates.triple_ok(7, 15, 2, 210)  # not increasing
    rows = [["7", "Mod4Is3", "2", "15", "211", "Solved", "false"]]
    with pytest.raises(gates.GateError):
        gates.check_rows(rows, [7])


def test_check_rows_counts_errors_and_rejects_no_distinct_above_two():
    rows = [["2", "NoDistinctSolution", "", "", "", "NoDistinctSolution", "false"],
            ["3", "", "", "", "", "Error", "false"]]
    assert gates.check_rows(rows, [2, 3]) == [3]
    rows[1] = ["3", "NoDistinctSolution", "", "", "", "NoDistinctSolution", "false"]
    with pytest.raises(gates.GateError):
        gates.check_rows(rows, [2, 3])


def test_check_rows_checks_the_hard_flag():
    rows = [["73", "Theorem3Search", "20", "210", "30660", "Solved", "false"]]
    assert gates.check_rows(rows, [73]) == []
    with pytest.raises(gates.GateError):
        gates.check_rows(rows, [73], hard_of=lambda n: True)


def _brute_hard(n):
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            if p % 24 != 1:
                return False
            m //= p
        else:
            p += 1
    return True


def test_hard_set_matches_brute_force():
    limit = 20_000
    expected = [n for n in range(2, limit + 1) if _brute_hard(n)]
    assert gates.hard_set(limit) == expected
    assert expected[:3] == [73, 97, 193]


def test_is_hard_matches_brute_force():
    ns = list(range(2, 20_000)) + [73 * 97 * 193, 73 * 97 * 194, 10**12 + 1]
    primes = gates.primes_up_to(isqrt(max(ns)) + 1)
    assert [gates.is_hard(n, primes) for n in ns] == [_brute_hard(n) for n in ns]
