import csv
import hashlib
import io
import json
import tracemalloc
import warnings
from collections import Counter, deque
from concurrent.futures import Future
from fractions import Fraction as PyFraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fourovern.core_arith as core_arith
import fourovern.sweep as sweep_mod

from fourovern.sweep import (
    SweepRecord,
    Status,
    classify_hard,
    emit_report,
    solve,
    sweep_range,
)
from fourovern.cli import cli_main
from fourovern.construct_th2 import theorem2_dispatch
from fourovern.triples import Method

# the first n that solve() attributes to each Method; n = 2 is NoDistinctSolution
FIRST_N_OF_METHOD = {
    Method.NO_DISTINCT_SOLUTION: 2, Method.ORACLE: 3, Method.EVEN: 4, Method.MOD3_IS_2: 5,
    Method.MOD4_IS_3: 7, Method.MOD3_IS_0: 9, Method.PRIME_13_MOD_24: 13,
    Method.PRIME_LIFT: 25, Method.THEOREM_3_SEARCH: 73, Method.THEOREM_4: 97,
}

# no prime factor up to 1000, and past the range in which factorize proves primality
PAST_PRIMALITY_RANGE = 4835703278458516698824713

# sha256 of the CSV report of solve(n) over the hard class up to 1e6
HARD_CLASS_CSV_SHA256 = "479d964ef866ccdf52233990d78558ed63844debbd6b8ff827cb12949ee3bff3"


def validated(rec):
    assert rec.status is Status.SOLVED
    got = PyFraction(1, rec.x1) + PyFraction(1, rec.x2) + PyFraction(1, rec.x3)
    assert got == PyFraction(4, rec.n)
    assert rec.x1 < rec.x2 < rec.x3


class TestClassifyHard:
    @pytest.mark.parametrize(
        "n,want",
        [(73, True), (25, False), (5329, True), (2, False), (97, True), (7081, True), (24, False)],
    )
    def test_examples(self, n, want):
        assert classify_hard(n) is want

    def test_hard_implies_1_mod_24(self):
        for n in range(2, 20000):
            if classify_hard(n):
                assert n % 24 == 1

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            classify_hard(1)


class TestSolve:
    def test_seven(self):
        rec = solve(7)
        assert (rec.method, (rec.x1, rec.x2, rec.x3)) == (Method.MOD4_IS_3, (3, 6, 14))
        assert not rec.hard
        validated(rec)

    def test_hard_prime_default_bound(self):
        rec = solve(73)
        assert rec.hard
        assert rec.method is Method.THEOREM_3_SEARCH
        assert (rec.x1, rec.x2, rec.x3) == (20, 219, 4380)
        validated(rec)

    def test_hard_prime_smaller_bound(self):
        rec = solve(73, k_bound=99)
        assert rec.method is Method.THEOREM_3_SEARCH
        assert (rec.x1, rec.x2, rec.x3) == (20, 292, 730)
        validated(rec)

    def test_hard_prime_tiny_bound_falls_to_oracle(self):
        rec = solve(73, k_bound=3)
        assert rec.method is Method.ORACLE
        assert (rec.x1, rec.x2, rec.x3) == (20, 210, 30660)
        validated(rec)

    def test_two_has_no_distinct_solution(self):
        rec = solve(2)
        assert rec.status is Status.NO_DISTINCT_SOLUTION
        assert rec.method is Method.NO_DISTINCT_SOLUTION
        assert (rec.x1, rec.x2, rec.x3) == (None, None, None)
        assert not rec.hard

    def test_three_needs_the_oracle(self, recwarn):
        rec = solve(3)
        assert rec.method is Method.ORACLE
        assert (rec.x1, rec.x2, rec.x3) == (1, 4, 12)
        validated(rec)
        assert not recwarn.list

    def test_witness_path_raises_no_warning(self):
        hard = [n for n in range(25, 10_001, 24) if classify_hard(n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in [3] + hard:
                validated(solve(n))

    def test_overflow_becomes_error_record(self):
        rec = solve(2**66)
        assert rec.status is Status.ERROR
        assert rec.method is None
        assert rec.detail and "128-bit" in rec.detail

    @pytest.mark.parametrize("n, decided", [(PAST_PRIMALITY_RANGE, False),
                                            (PAST_PRIMALITY_RANGE + 36, True)])
    def test_factoring_failure_becomes_error_record(self, n, decided):
        # n = 1 (mod 24) fails in classify_hard, before hardness is decided;
        # n = 13 (mod 24) is not hard, and fails in theorem2_dispatch
        rec = solve(n)
        assert rec.status is Status.ERROR and rec.method is None and not rec.hard
        assert rec.detail.startswith(f"factorize: cofactor {n} of {n} exceeds")
        assert rec.detail.endswith("; hardness not decided") is not decided

    # half the draws are n = 1 (mod 24) past 2**81, which factorize often cannot factor
    @given(st.one_of(st.integers(2, 2**127 - 1),
                     st.integers(2**77, 2**122).map(lambda k: 24 * k + 1)))
    @settings(max_examples=200, deadline=None)
    def test_returns_a_record_below_2_127(self, n):
        rec = solve(n)
        assert rec.n == n
        if rec.status is Status.SOLVED:
            validated(rec)
        elif rec.status is Status.ERROR:
            assert rec.detail and rec.method is None

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            solve(1)

    def test_factor_cache_holds_one_n(self):
        # every factorize and divisors call within solve(n) asks for n itself,
        # so the one cached entry serves the repeats and nothing is kept across n
        core_arith._factor_pairs.cache_clear()
        for n in range(3, 20_001):
            solve(n)
        info = core_arith._factor_pairs.cache_info()
        assert info.currsize <= 1 and info.hits > 0


class TestSerialization:
    def test_csv_row_for_seven(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([solve(7)], path)
        assert path.read_text() == "7,Mod4Is3,3,6,14,Solved,false\n"

    def test_csv_row_for_two(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([solve(2)], path)
        assert path.read_text() == "2,NoDistinctSolution,,,,NoDistinctSolution,false\n"

    def test_round_trip(self, tmp_path):
        records = sweep_range(3, 80)
        path = tmp_path / "r.csv"
        emit_report(records, path)
        assert [sweep_mod._record_of(row) for row, _ in sweep_mod._report_rows(path)] == records

    def test_unsorted_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([solve(7), solve(5)], tmp_path / "r.csv")

    def test_unwritable_report_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_report([solve(7)], tmp_path / "missing" / "r.csv")


class TestImmutability:
    """A record and a triple are values: assigning any field raises and
    leaves the field as it was."""

    @pytest.mark.parametrize("name", ["n", "method", "x1", "x2", "x3", "status", "hard", "detail"])
    def test_sweep_record(self, name):
        rec = solve(2)  # the one record with a detail
        before = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        assert getattr(rec, name) == before

    @pytest.mark.parametrize("name", ["x1", "x2", "x3", "target_num", "target_den", "method"])
    def test_unit_triple(self, name):
        triple, _ = theorem2_dispatch(7)
        before = getattr(triple, name)
        with pytest.raises(AttributeError):
            setattr(triple, name, 0)
        assert getattr(triple, name) == before


def reference_obj(rec):
    method = rec.method.value if rec.method is not None else None
    return {"n": rec.n, "method": method, "x1": rec.x1, "x2": rec.x2, "x3": rec.x3,
            "status": rec.status.value, "hard": rec.hard}


def reference_csv_line(obj):
    buf = io.StringIO()
    cells = ["" if v is None else str(v) for v in list(obj.values())[:-1]]
    csv.writer(buf, lineterminator="\n").writerow(cells + ["true" if obj["hard"] else "false"])
    return buf.getvalue()


def is_record(row):
    """Whether solve can emit row, decided with the stdlib Fraction: a
    Solved row has 4/n = 1/x1 + 1/x2 + 1/x3 with 0 < x1 < x2 < x3 and a
    solving method, a NoDistinctSolution row that method and no parts, and
    an Error row neither a method nor parts."""
    n, method, x1, x2, x3, status, hard = row
    if n < 2:
        return False
    if status != Status.SOLVED.value:
        want = None if status == Status.ERROR.value else Method.NO_DISTINCT_SOLUTION.value
        return method == want and x1 is None
    return (x1 is not None and method not in (None, Method.NO_DISTINCT_SOLUTION.value)
            and 0 < x1 < x2 < x3
            and PyFraction(1, x1) + PyFraction(1, x2) + PyFraction(1, x3) == PyFraction(4, n))


class TestFormatters:
    """The direct formatter against the stdlib csv writer, and the CSV line
    parser against the formatter."""

    @pytest.mark.parametrize(
        "n", sorted(FIRST_N_OF_METHOD.values()) + [2**66], ids=lambda n: f"n={n}"
    )
    def test_record_of_every_method(self, n, capsys):
        rec = solve(n)
        if n == 2**66:
            assert rec.status is Status.ERROR
        else:
            assert FIRST_N_OF_METHOD[rec.method] == n
        row, obj = sweep_mod._row(rec), reference_obj(rec)
        code = cli_main(["decompose", str(n), "--json"])
        assert code == {Status.SOLVED: 0, Status.NO_DISTINCT_SOLUTION: 1, Status.ERROR: 3}[rec.status]
        assert capsys.readouterr().out == json.dumps(obj) + "\n"
        assert sweep_mod._csv_line(row) == reference_csv_line(obj)
        assert sweep_mod._row_from_line(reference_csv_line(obj)) == row

    @given(
        n=st.integers(2, 2**127),
        method=st.sampled_from([None] + [m.value for m in Method]),
        parts=st.one_of(st.none(), st.tuples(*[st.integers(1, 2**127)] * 3)),
        status=st.sampled_from([s.value for s in Status]),
        hard=st.booleans(),
    )
    @example(n=7, method="Mod4Is3", parts=(3, 6, 14), status="Solved", hard=False)
    @example(n=7, method="Mod4Is3", parts=(3, 6, 15), status="Solved", hard=False)
    def test_random_rows(self, n, method, parts, status, hard):
        row = (n, method, *(parts or (None, None, None)), status, hard)
        obj = dict(zip(sweep_mod.CSV_COLUMNS, row))
        line = reference_csv_line(obj)
        assert sweep_mod._csv_line(row) == line
        # the line parser accepts exactly the rows solve can emit
        if is_record(row):
            assert sweep_mod._row_from_line(line) == row
        else:
            with pytest.raises(ValueError, match="not a"):
                sweep_mod._row_from_line(line)


class TestRecordChecks:
    """A record read back must be one that solve() can emit."""

    SEVEN = {"n": 7, "method": "Mod4Is3", "x1": 3, "x2": 6, "x3": 14, "status": "Solved",
             "hard": False}

    @pytest.mark.parametrize(
        "change",
        [
            {"x3": 15},                                        # 4/7 != 1/3 + 1/6 + 1/15
            {"n": -7, "method": None},
            {"n": -7},
            {"method": None},
            {"method": "NoDistinctSolution"},
            {"x1": 6, "x2": 3},                                 # parts not increasing
            {"x1": 0},
            {"n": 1},
            {"status": "Error"},                                 # Error with a method and parts
            {"status": "Error", "x1": None, "x2": None, "x3": None},   # Error with a method
            {"status": "NoDistinctSolution", "x1": None, "x2": None, "x3": None},
        ],
        ids=["x3-15", "n-negative-method-null", "n-negative", "method-null", "method-nds",
             "parts-unordered", "part-zero", "n-one", "error-with-parts",
             "error-with-method", "nds-wrong-method"],
    )
    def test_rejected(self, change):
        obj = {**self.SEVEN, **change}
        with pytest.raises(ValueError, match="not a"):
            sweep_mod._row_from_line(reference_csv_line(obj))

    @pytest.mark.parametrize("n", [2, 3, 7, 73, 97, 2**66], ids=lambda n: f"n={n}")
    def test_solve_output_accepted(self, n):
        rec = solve(n)
        row = sweep_mod._row(rec)
        assert sweep_mod._row_from_line(sweep_mod._csv_line(row)) == row
        assert sweep_mod._record_of(row) == rec

    def test_tampered_checkpoint_resumes_like_fresh(self, tmp_path):
        fresh_ck, ck = tmp_path / "fresh.csv", tmp_path / "ck.csv"
        fresh = sweep_range(3, 20, checkpoint=fresh_ck)
        ck.write_bytes(fresh_ck.read_bytes().replace(b"7,Mod4Is3,3,6,14,", b"7,Mod4Is3,3,6,15,", 1))
        assert ck.read_bytes() != fresh_ck.read_bytes()
        resumed = sweep_range(3, 20, checkpoint=ck)
        assert ck.read_bytes() == fresh_ck.read_bytes()
        a, b = tmp_path / "fresh.csv", tmp_path / "resumed.csv"
        emit_report(fresh, a)
        emit_report(resumed, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"7,Mod4Is3,3,6,14,Solved,false\n" in b.read_bytes()


class TestSweepRange:
    def test_config_validation(self, tmp_path):
        # raised at the call, before the checkpoint is opened
        ck = tmp_path / "ck.csv"
        for args in [(5, 3), (1, 10), (3, 10, 0)]:  # start > end, start < 2, no workers
            with pytest.raises(ValueError):
                sweep_mod.sweep_rows(*args, checkpoint=ck)
            with pytest.raises(ValueError):
                sweep_range(*args, checkpoint=ck)
        assert not ck.exists()
        with pytest.raises(TypeError):
            sweep_mod.sweep_rows(3, 10, k_bound=3)  # sweeps always use solve's default bound

    @pytest.mark.parametrize("cpus, pools", [(None, []), (1, []), (2, [2])])
    def test_workers_capped_at_cpu_count(self, monkeypatch, cpus, pools):
        # the pool is asked for at most os.cpu_count() processes (one
        # worker solves in this process); the stand-in pool runs each block
        # here, so nothing forks whatever the count asked for
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InlinePool)
        assert sweep_range(3, 1000, workers=100_000) == sweep_range(3, 1000)
        assert started == pools

    def test_one_record_per_n_in_order(self):
        records = sweep_range(3, 120)
        assert [r.n for r in records] == list(range(3, 121))
        for rec in records:
            validated(rec)

    def test_workers_do_not_change_output(self, tmp_path):
        solo = sweep_range(3, 200, workers=1)
        multi = sweep_range(3, 200, workers=3)
        assert solo == multi
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(solo, a)
        emit_report(multi, b)
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        ck = tmp_path / "sweep.csv"
        uninterrupted = sweep_range(3, 300)
        full = sweep_range(3, 300, checkpoint=ck)
        assert full == uninterrupted

        # simulate a kill at a record boundary: keep only the first 120 lines
        lines = ck.read_text().splitlines()
        assert len(lines) == 298
        ck.write_text("\n".join(lines[:120]) + "\n")
        resumed = sweep_range(3, 300, checkpoint=ck)
        assert resumed == uninterrupted
        assert len(ck.read_text().splitlines()) == 298

    def test_checkpoint_tolerates_torn_tail(self, tmp_path):
        ck = tmp_path / "sweep.csv"
        want = sweep_range(3, 60, checkpoint=ck)
        with open(ck, "a") as fh:
            fh.write("61,Mod3Is0,21,")  # torn write
        again = sweep_range(3, 60, checkpoint=ck)
        assert again == want

    @pytest.mark.parametrize("tail", ['{"n":1001,"meth', "complete", "5\n", "string-hard"])
    def test_resume_cuts_torn_tail(self, tmp_path, tail):
        # a tail that is not a whole newline-terminated record as the writer
        # emits it is cut before appending, so repeated resumes neither keep
        # it, glue records onto it, nor drop the records written after it
        fresh = sweep_range(3, 3000)
        ck = tmp_path / "sweep.csv"
        sweep_range(3, 1000, checkpoint=ck)
        line = sweep_mod._csv_line(sweep_mod._row(solve(1001)))
        if tail == "complete":
            tail = line[:-1]
        elif tail == "string-hard":  # hard spelled otherwise than the writer spells it
            tail = line.replace("false", "False")
        with open(ck, "a") as fh:
            fh.write(tail)
        for _ in range(2):
            assert sweep_range(3, 3000, checkpoint=ck) == fresh
        emit_report(fresh, tmp_path / "fresh.csv")
        assert ck.read_bytes() == (tmp_path / "fresh.csv").read_bytes()

    def test_resume_recomputes_from_a_gap(self, tmp_path):
        # the run ends at the gap: 57 and every row after it are solved again
        fresh_ck, ck = tmp_path / "fresh.csv", tmp_path / "ck.csv"
        fresh = sweep_range(3, 200, checkpoint=fresh_ck)
        line = sweep_mod._csv_line(sweep_mod._row(solve(57))).encode()
        ck.write_bytes(fresh_ck.read_bytes().replace(line, b"", 1))
        assert ck.read_bytes() != fresh_ck.read_bytes()
        assert sweep_range(3, 200, checkpoint=ck) == fresh
        assert ck.read_bytes() == fresh_ck.read_bytes()

    def test_resume_holds_no_checkpoint_rows(self, tmp_path, monkeypatch):
        ck = tmp_path / "sweep.csv"
        deque(sweep_mod.sweep_rows(3, 30000, checkpoint=ck), maxlen=0)

        def boom(n, k_bound=999):
            raise AssertionError("solve called despite complete checkpoint")

        monkeypatch.setattr(sweep_mod, "solve", boom)
        tracemalloc.start()
        try:
            rows = sweep_mod.sweep_rows(3, 30000, checkpoint=ck)
            last = deque(rows, maxlen=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row, line = last[0]
        assert row[0] == 30000 and line.startswith("30000,")
        assert peak < 1_000_000

    def test_resume_cuts_newline_free_tail(self, tmp_path):
        # a tail of megabytes with no newline is read a bounded line at a
        # time, found not to be a record, and cut
        fresh_ck, ck = tmp_path / "fresh.csv", tmp_path / "ck.csv"
        deque(sweep_mod.sweep_rows(3, 3000, checkpoint=fresh_ck), maxlen=0)
        prefix = b"".join(fresh_ck.read_bytes().splitlines(keepends=True)[:1000])
        ck.write_bytes(prefix + b"7" * (5 << 20))
        tracemalloc.start()
        try:
            deque(sweep_mod.sweep_rows(3, 3000, checkpoint=ck), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ck.read_bytes() == fresh_ck.read_bytes()
        assert peak < 1_000_000

    def test_checkpoint_skips_recomputation(self, tmp_path, monkeypatch):
        ck = tmp_path / "sweep.csv"
        sweep_range(3, 50, checkpoint=ck)
        import fourovern.sweep as sweep_mod

        def boom(n, k_bound=999):
            raise AssertionError("solve called despite complete checkpoint")

        monkeypatch.setattr(sweep_mod, "solve", boom)
        records = sweep_range(3, 50, checkpoint=ck)
        assert [r.n for r in records] == list(range(3, 51))

    def test_unwritable_checkpoint_fails_before_compute(self, tmp_path, monkeypatch):
        import fourovern.sweep as sweep_mod

        def boom(n, k_bound=999):
            raise AssertionError("solve called despite bad checkpoint path")

        monkeypatch.setattr(sweep_mod, "solve", boom)
        with pytest.raises(OSError):
            sweep_range(3, 50, checkpoint=tmp_path / "no" / "dir.csv")

    def test_method_histogram(self):
        records = sweep_range(3, 100)
        hist = Counter(r.method.value for r in records)
        assert sum(hist.values()) == 98
        assert hist["Even"] == 49

    def test_hard_class_never_uses_th2_paths(self):
        records = sweep_range(3, 4000)
        closed_forms = {
            Method.EVEN, Method.MOD3_IS_2, Method.MOD3_IS_0,
            Method.MOD4_IS_3, Method.PRIME_LIFT, Method.PRIME_13_MOD_24,
        }
        hard = [r for r in records if r.hard]
        assert hard, "expected hard cases in [3, 4000]"
        assert all(r.method not in closed_forms for r in hard)


def hard_class(limit):
    """Every n <= limit whose prime factors are all 1 (mod 24), from a
    smallest-prime-factor sieve independent of the package's factoring."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    out = []
    for n in range(2, limit + 1):
        m = n
        while m > 1 and spf[m] % 24 == 1:
            m //= spf[m]
        if m == 1:
            out.append(n)
    return out


class TestHardClassAttribution:
    def test_records_and_methods_pinned(self, tmp_path):
        ns = hard_class(10**6)
        assert len(ns) == 10_434
        records = [solve(n) for n in ns]
        report = tmp_path / "hard.csv"
        emit_report(records, report)
        assert hashlib.sha256(report.read_bytes()).hexdigest() == HARD_CLASS_CSV_SHA256
        hist = Counter(r.method.value for r in records)
        assert hist == {"Theorem4": 5334, "Theorem3Search": 5085, "Oracle": 15}
