"""Per-n solving pipeline, range sweeps with checkpoint/resume, and reports.

solve() composes the constructive machinery cheapest-first: closed-form
paths and prime lifting, then the divisor-pair search, then the bounded
witness search, then the exhaustive oracle.  n = 2 genuinely has no
decomposition into three distinct unit fractions and is reported as such,
not as an error.

sweep_rows streams one row per n, ordered by n and byte-identical
regardless of worker count, each with its CSV line, formatted once where
the row is made; sweep_range collects it into records.  A checkpoint is
the CSV report of a sweep's first rows, appended in n order and fsynced
every 1000 records, so a killed sweep resumes by streaming that prefix,
each line passed on as it was read, and solving only the rest.
"""

from __future__ import annotations

import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Generator, Iterable, Iterator, TextIO

from .construct_th2 import theorem2_dispatch
from .construct_th34 import DEFAULT_K_BOUND, theorem3_search, theorem4_search
from .core_arith import CheckedOverflowError, factorize
from .oracle import first_solution
from .triples import Method, UnitTriple

CSV_COLUMNS = ("n", "method", "x1", "x2", "x3", "status", "hard")

_FSYNC_EVERY = 1000
_BLOCK_SIZE = 128
_IN_FLIGHT = 4


class Status(Enum):
    SOLVED = "Solved"
    NO_DISTINCT_SOLUTION = "NoDistinctSolution"
    ERROR = "Error"


@dataclass(frozen=True)
class SweepRecord:
    """Outcome for one n.  status == SOLVED implies a validated triple.

    detail carries diagnostics (overflow messages, non-existence notes);
    it is not serialized and does not take part in equality.
    """

    n: int
    method: Method | None
    x1: int | None
    x2: int | None
    x3: int | None
    status: Status
    hard: bool
    detail: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SweepConfig:
    """Sweep [start, end]; every n is solved with solve's default k_bound."""

    start: int
    end: int
    workers: int = 1
    checkpoint_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.start < 2 or self.end < self.start:
            raise ValueError(f"need 2 <= start <= end, got [{self.start}, {self.end}]")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def classify_hard(n: int) -> bool:
    """True iff every prime divisor of n is congruent to 1 mod 24.

    These n are the ones no constructive path reaches; membership is
    always recomputed, never tabulated.  Products of primes that are
    1 mod 24 stay 1 mod 24, so any other residue is answered False
    without factoring; only n = 1 (mod 24) is factorized.
    """
    if n < 2:
        raise ValueError(f"classify_hard expects n >= 2, got {n}")
    if n % 24 != 1:
        return False
    return all(p % 24 == 1 for p, _ in factorize(n))


def _solved(n: int, triple: UnitTriple, method: Method, hard: bool) -> SweepRecord:
    return SweepRecord(n, method, triple.x1, triple.x2, triple.x3, Status.SOLVED, hard)


def solve(n: int, k_bound: int = DEFAULT_K_BOUND) -> SweepRecord:
    """Solve 4/n with the cheapest applicable construction.

    Fallback chain: theorem2_dispatch, theorem4_search, theorem3_search,
    then the oracle.  Overflow becomes a Status.ERROR record rather than
    an exception so sweeps stay total.
    """
    if n < 2:
        raise ValueError(f"solve expects n >= 2, got {n}")
    hard = classify_hard(n)
    try:
        dispatched = theorem2_dispatch(n)
        if dispatched is not None:
            triple, method = dispatched
            return _solved(n, triple, method, hard)
        if n % 2 and n >= 3:
            found = theorem4_search(n)
            if found is not None:
                return _solved(n, found[0], Method.THEOREM_4, hard)
            found = theorem3_search(n, k_bound)
            if found is not None:
                return _solved(n, found[0], Method.THEOREM_3_SEARCH, hard)
        triple = first_solution(4, n)
    except CheckedOverflowError as exc:
        return SweepRecord(n, None, None, None, None, Status.ERROR, hard, detail=str(exc))
    if triple is None:
        return SweepRecord(
            n, Method.NO_DISTINCT_SOLUTION, None, None, None,
            Status.NO_DISTINCT_SOLUTION, hard,
            detail="exhaustive window scan found no distinct triple",
        )
    return _solved(n, triple, Method.ORACLE, hard)


# ---------------------------------------------------------------------------
# serialization
#
# A row is the plain tuple (n, method tag or None, x1, x2, x3, status tag,
# hard): what a checkpoint line holds, and what every writer formats
# directly, without building a SweepRecord or a dict.  A stream carries
# each row as the pair (row, _csv_line(row)), so that the checkpoint and a
# CSV report write the line made once.

def _row(rec: SweepRecord) -> tuple:
    # _value_ is the member's plain attribute; .value costs a descriptor call
    method = rec.method._value_ if rec.method is not None else None
    return (rec.n, method, rec.x1, rec.x2, rec.x3, rec.status._value_, rec.hard)


def _record_of(row: tuple) -> SweepRecord:
    n, method, x1, x2, x3, status, hard = row
    method = Method(method) if method is not None else None
    return SweepRecord(n, method, x1, x2, x3, Status(status), hard)


def record_to_obj(rec: SweepRecord) -> dict:
    return dict(zip(CSV_COLUMNS, _row(rec)))


_SOLVED = Status.SOLVED.value
# status tag -> the method tags (None for no method) a record with it carries
_METHODS_OF_STATUS = {
    _SOLVED: frozenset(m.value for m in Method) - {Method.NO_DISTINCT_SOLUTION.value},
    Status.NO_DISTINCT_SOLUTION.value: frozenset({Method.NO_DISTINCT_SOLUTION.value}),
    Status.ERROR.value: frozenset({None}),
}


def _checked_row(n, method, x1, x2, x3, status, hard) -> tuple:
    """The row with these fields if solve can emit it, else ValueError.

    Every record has an int n >= 2, a status tag and a bool hard.  A Solved
    record has int parts 0 < x1 < x2 < x3 with 4/n = 1/x1 + 1/x2 + 1/x3,
    checked exactly as 4*x1*x2*x3 == n*(x1*x2 + x1*x3 + x2*x3), and a
    solving method tag; a NoDistinctSolution record has that method tag and
    no parts; an Error record has neither a method nor parts.
    """
    try:
        ok = method in _METHODS_OF_STATUS[status]
    except (KeyError, TypeError):  # not a status tag, or a tag that cannot be one
        ok = False
    ok = ok and type(n) is int and n >= 2 and type(hard) is bool
    if status == _SOLVED:
        ok = (ok and type(x1) is type(x2) is type(x3) is int and 0 < x1 < x2 < x3
              and 4 * x1 * x2 * x3 == n * (x1 * x2 + x1 * x3 + x2 * x3))
    else:
        ok = ok and x1 is x2 is x3 is None
    if not ok:
        raise ValueError(
            f"n={n!r}, method {method!r}, parts ({x1!r}, {x2!r}, {x3!r}), hard={hard!r}:"
            f" not a {status!r} record"
        )
    return (n, method, x1, x2, x3, status, hard)


def _row_from_obj(obj: dict) -> tuple:
    return _checked_row(*(obj[key] for key in CSV_COLUMNS))


def record_from_obj(obj: dict) -> SweepRecord:
    return _record_of(_row_from_obj(obj))


def _row_from_line(line: str) -> tuple:
    """The row whose _csv_line is exactly line, if solve can emit it (see
    _checked_row); else ValueError, so " 7", "+3" or "07" is rejected too."""
    n, method, x1, x2, x3, status, hard = line[:-1].split(",")
    row = _checked_row(int(n), method or None, int(x1) if x1 else None,
                       int(x2) if x2 else None, int(x3) if x3 else None, status,
                       hard == "true")
    written = _csv_line(row)
    if written != line:
        raise ValueError(f"{line!r} is not written as {written!r}")
    return row


def _csv_line(row: tuple) -> str:
    """The row as csv.writer writes it: no cell needs quoting."""
    n, method, x1, x2, x3, status, hard = row
    if x1 is None:
        x1 = x2 = x3 = ""
    return f"{n},{method or ''},{x1},{x2},{x3},{status},{'true' if hard else 'false'}\n"


def _with_line(row: tuple) -> tuple[tuple, str]:
    return row, _csv_line(row)


def _json_item(row: tuple) -> str:
    """One element of json.dump([record_to_obj(rec), ...], fh, indent=1)
    (no tag needs escaping)."""
    n, method, x1, x2, x3, status, hard = row
    if x1 is None:
        x1 = x2 = x3 = "null"
    method = f'"{method}"' if method is not None else "null"
    hard = "true" if hard else "false"
    return (f' {{\n  "n": {n},\n  "method": {method},\n  "x1": {x1},\n  "x2": {x2},\n'
            f'  "x3": {x3},\n  "status": "{status}",\n  "hard": {hard}\n }}')


def write_rows(pairs: Iterable[tuple[tuple, str]], format: str, fh: TextIO) -> dict[str, int]:
    """Write the (row, line) pairs of a stream to fh as the report
    write_report describes, one at a time: a CSV report writes each line as
    it is, a JSON report formats each row.

    Return the number of rows written of each status tag and, as "hard",
    of the hard ones.
    """
    counts = dict.fromkeys([*_METHODS_OF_STATUS, "hard"], 0)
    if format == "csv":
        for row, line in pairs:
            counts[row[5]] += 1
            counts["hard"] += row[6]
            fh.write(line)
    elif format == "json":
        sep = "[\n"
        for row, _ in pairs:
            counts[row[5]] += 1
            counts["hard"] += row[6]
            fh.write(sep + _json_item(row))
            sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")
    else:
        raise ValueError(f"unknown report format: {format!r}")
    return counts


def write_report(records: Iterable[SweepRecord], format: str, fh: TextIO) -> None:
    """Write records to fh as CSV rows n,method,x1,x2,x3,status,hard or as
    a JSON array of objects with those field names.

    Absent triple fields serialize as empty (CSV) or null (JSON).  CSV has
    no header row, so the row count equals the number of records.
    """
    write_rows(map(_with_line, map(_row, records)), format, fh)


def emit_rows(pairs: Iterable[tuple[tuple, str]], format: str,
              destination: str | Path) -> dict[str, int]:
    """Stream pairs (see write_rows) to a sibling <destination>.tmp, then
    rename it over destination; return write_rows' counts.

    If anything fails before the rename, including the iterator producing
    the pairs, the temporary file is removed and destination keeps its
    previous contents.
    """
    path = Path(destination)
    tmp = path.with_name(path.name + ".tmp")
    try:
        fh = open(tmp, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
    try:
        with fh:
            counts = write_rows(pairs, format, fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return counts


def emit_report(records: list[SweepRecord], format: str, destination: str | Path) -> None:
    """Write the report (see write_report) to the file at destination,
    replacing it atomically (see emit_rows).

    Records must be sorted by n; otherwise ValueError is raised before the
    file is touched.
    """
    if any(a.n >= b.n for a, b in zip(records, records[1:])):
        raise ValueError("records must be sorted by n")
    emit_rows(map(_with_line, map(_row, records)), format, destination)


def _report_rows(source: str | Path) -> Iterator[tuple]:
    """The rows of a report or a checkpoint, read one at a time: a CSV line
    starts with a digit, a JSON report (read whole) with "[".

    A row or element that is not a record solve can emit, as write_rows
    writes it (see _row_from_line), or whose n does not exceed the n
    before it, raises ValueError naming it.
    """
    path = Path(source)
    try:
        fh = open(path, "rb")  # newlines untranslated
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    with fh:
        first = fh.readline()
        if first.lstrip().startswith(b"["):
            items = json.loads((first + fh.read()).decode("utf-8"))
            parse, kind = _row_from_obj, "element"
        else:
            items = map(bytes.decode, chain((first,), fh) if first else ())
            parse, kind = _row_from_line, "row"
        last = 1  # every record has n >= 2
        for i, item in enumerate(items, 1):
            try:
                row = parse(item)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: {kind} {i} is not a record: {exc!r}") from exc
            if row[0] <= last:
                raise ValueError(f"{path}: {kind} {i} has n={row[0]}, not above"
                                 f" n={last} of {kind} {i - 1}")
            last = row[0]
            yield row


def load_report(source: str | Path) -> list[SweepRecord]:
    """Read a report or a checkpoint back (see _report_rows)."""
    return [_record_of(row) for row in _report_rows(source)]


# ---------------------------------------------------------------------------
# sweeping

def _solve_block(ns: list[int]) -> list[tuple]:
    return [_row(solve(n)) for n in ns]


def _solve_stream(pending: Iterator[int], workers: int) -> Iterator[tuple[tuple, str]]:
    if workers == 1:
        for n in pending:
            yield _with_line(_row(solve(n)))
        return
    # Fixed-size blocks picked up by whichever worker is free; results are
    # consumed in submission order, so output never depends on scheduling.
    # At most _IN_FLIGHT blocks per worker are submitted ahead of the one
    # being consumed, so memory does not grow with the range.
    blocks = iter(lambda: list(islice(pending, _BLOCK_SIZE)), [])
    inflight: deque = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for block in blocks:
                inflight.append(pool.submit(_solve_block, block))
                if len(inflight) > _IN_FLIGHT * workers:
                    yield from map(_with_line, inflight.popleft().result())
            while inflight:
                yield from map(_with_line, inflight.popleft().result())
        finally:
            for future in inflight:
                future.cancel()


def _resumed_rows(path: str | Path, start: int, end: int) -> Generator[tuple, None, tuple]:
    """Yield the (row, line) pairs of the checkpoint's run that have
    n <= end, each line as it was read; return the first n left to solve
    and the run's length in bytes.

    The run is the checkpoint's lines for start, start + 1, ... in order.
    It ends before the first line that is not the next n's report row (see
    _row_from_line): a torn tail, an edited line, a gap or a repeat.  A
    missing file is an empty run; a file whose first line is the row of
    another n is a ValueError.
    """
    n = start
    intact = 0
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return n, intact
    with fh:
        for line in fh:
            try:
                text = line.decode()
                row = _row_from_line(text)
            except ValueError:
                break
            if row[0] != n:
                if n == start:
                    raise ValueError(f"checkpoint {path} starts at n={row[0]}, not at {start}")
                break
            if n <= end:
                yield row, text
            n += 1
            intact += len(line)
    return n, intact


def sweep_rows(config: SweepConfig) -> Iterator[tuple[tuple, str]]:
    """One (row, line) pair per n in [start, end], in n order, produced as
    it is needed; line is the row's CSV line, made once per row.

    Deterministic for any worker count.  With a checkpoint path, the pairs
    of the checkpoint's run (see _resumed_rows) are streamed from it, the
    file is cut after that run, and each new row's line is appended to it
    before the pair is yielded, fsynced every _FSYNC_EVERY rows; an
    unwritable checkpoint fails before any row is solved.  Memory does not
    grow with the range.
    """
    path = config.checkpoint_path
    if path is None:
        yield from _solve_stream(iter(range(config.start, config.end + 1)), config.workers)
        return
    first, intact = yield from _resumed_rows(path, config.start, config.end)
    try:
        fh = open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot open checkpoint {path}: {exc}") from exc
    with fh:
        fh.truncate(intact)
        solved = _solve_stream(iter(range(first, config.end + 1)), config.workers)
        try:
            for written, pair in enumerate(solved, 1):
                fh.write(pair[1])
                if written % _FSYNC_EVERY == 0:
                    fh.flush()
                    os.fsync(fh.fileno())
                yield pair
        finally:
            solved.close()
            fh.flush()
            os.fsync(fh.fileno())


def sweep_range(config: SweepConfig) -> list[SweepRecord]:
    """One record per n in [start, end], ordered by n: the rows of
    sweep_rows(config) as SweepRecords, whose detail is None."""
    return [_record_of(row) for row, _ in sweep_rows(config)]


def method_histogram(records: Iterable[SweepRecord]) -> dict[str, int]:
    """Method tag -> count, for reporting."""
    hist: dict[str, int] = {}
    for rec in records:
        tag = rec.method.value if rec.method is not None else "(none)"
        hist[tag] = hist.get(tag, 0) + 1
    return hist
