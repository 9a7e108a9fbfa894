"""Per-n solving pipeline, range sweeps with checkpoint/resume, and reports.

solve() composes the constructive machinery cheapest-first: closed-form
paths and prime lifting, then the divisor-pair search, then the bounded
witness search, then the exhaustive oracle.  n = 2 genuinely has no
decomposition into three distinct unit fractions and is reported as such,
not as an error.

sweep_rows streams one row per n, ordered by n and byte-identical
regardless of worker count; sweep_range collects it into records.  A
checkpoint holds the CSV report rows, appended in n order and fsynced
every 1000 records, so a killed sweep resumes from its completed prefix.
"""

from __future__ import annotations

import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, TextIO

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
# hard): what pool workers send back, what a checkpoint line holds, and what
# every writer formats directly, without building a SweepRecord or a dict.

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


def _checked_row(n, method, x1, x2, x3, status, hard) -> tuple:
    """The row with these fields if solve can emit it, else ValueError.

    Every record has an int n >= 2 and a bool hard.  A Solved record has
    int parts 0 < x1 < x2 < x3 with 4/n = 1/x1 + 1/x2 + 1/x3, checked
    exactly as 4*x1*x2*x3 == n*(x1*x2 + x1*x3 + x2*x3), and a solving
    method; a NoDistinctSolution record has that method and no parts; an
    Error record has neither a method nor parts.
    """
    as_method = Method(method) if method is not None else None
    as_status = Status(status)
    ok = type(n) is int and n >= 2 and type(hard) is bool
    if as_status is Status.SOLVED:
        ok = (ok and as_method not in (None, Method.NO_DISTINCT_SOLUTION)
              and type(x1) is type(x2) is type(x3) is int and 0 < x1 < x2 < x3
              and 4 * x1 * x2 * x3 == n * (x1 * x2 + x1 * x3 + x2 * x3))
    else:
        want = Method.NO_DISTINCT_SOLUTION if as_status is Status.NO_DISTINCT_SOLUTION else None
        ok = ok and as_method is want and x1 is x2 is x3 is None
    if not ok:
        raise ValueError(
            f"n={n!r}, method {method!r}, parts ({x1!r}, {x2!r}, {x3!r}), hard={hard!r}:"
            f" not a {as_status.value} record"
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
    x1, x2, x3 = (int(x) if x else None for x in (x1, x2, x3))
    row = _checked_row(int(n), method or None, x1, x2, x3, status, hard == "true")
    if _csv_line(row) != line:
        raise ValueError(f"{line!r} is not written as {_csv_line(row)!r}")
    return row


def _csv_line(row: tuple) -> str:
    """The row as csv.writer writes it: no cell needs quoting."""
    n, method, x1, x2, x3, status, hard = row
    if x1 is None:
        x1 = x2 = x3 = ""
    return f"{n},{method or ''},{x1},{x2},{x3},{status},{'true' if hard else 'false'}\n"


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


def write_rows(rows: Iterable[tuple], format: str, fh: TextIO) -> None:
    """Write rows to fh as the report write_report describes, one row at a time."""
    if format == "csv":
        fh.writelines(map(_csv_line, rows))
    elif format == "json":
        items = map(_json_item, rows)
        first = next(items, None)
        if first is None:
            fh.write("[]\n")
            return
        fh.write("[\n" + first)
        fh.writelines(",\n" + item for item in items)
        fh.write("\n]\n")
    else:
        raise ValueError(f"unknown report format: {format!r}")


def write_report(records: Iterable[SweepRecord], format: str, fh: TextIO) -> None:
    """Write records to fh as CSV rows n,method,x1,x2,x3,status,hard or as
    a JSON array of objects with those field names.

    Absent triple fields serialize as empty (CSV) or null (JSON).  CSV has
    no header row, so the row count equals the number of records.
    """
    write_rows(map(_row, records), format, fh)


def emit_rows(rows: Iterable[tuple], format: str, destination: str | Path) -> None:
    """Stream rows (see write_rows) to a sibling <destination>.tmp, then
    rename it over destination.

    If anything fails before the rename, including the iterator producing
    the rows, the temporary file is removed and destination keeps its
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
            write_rows(rows, format, fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def emit_report(records: list[SweepRecord], format: str, destination: str | Path) -> None:
    """Write the report (see write_report) to the file at destination,
    replacing it atomically (see emit_rows).

    Records must be sorted by n; otherwise ValueError is raised before the
    file is touched.
    """
    if any(a.n >= b.n for a, b in zip(records, records[1:])):
        raise ValueError("records must be sorted by n")
    emit_rows(map(_row, records), format, destination)


def load_report(source: str | Path, format: str | None = None) -> list[SweepRecord]:
    """Read a report or a checkpoint back; format inferred from the content
    when not given.

    A row or element that is not a record solve can emit, as write_rows
    writes it (see _row_from_line), raises ValueError naming it.
    """
    path = Path(source)
    try:
        text = path.read_bytes().decode("utf-8")  # newlines untranslated
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    if format is None:
        format = "json" if text.lstrip().startswith("[") else "csv"
    if format == "json":
        items, parse, kind = json.loads(text), _row_from_obj, "element"
    else:
        items, parse, kind = text.splitlines(keepends=True), _row_from_line, "row"
    records = []
    for i, item in enumerate(items, 1):
        try:
            records.append(_record_of(parse(item)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {kind} {i} is not a record: {exc!r}") from exc
    return records


# ---------------------------------------------------------------------------
# sweeping

class _CheckpointWriter:
    """Append-only writer of report rows, fsynced every _FSYNC_EVERY lines.

    The file is first cut back to its first keep_bytes bytes, so lines
    are never appended onto a torn one.
    """

    def __init__(self, path: str | Path, keep_bytes: int) -> None:
        try:
            self._fh = open(path, "a", encoding="utf-8")
            self._fh.truncate(keep_bytes)
        except OSError as exc:
            raise OSError(f"cannot open checkpoint {path}: {exc}") from exc
        self._pending = 0

    def append(self, line: str) -> None:
        self._fh.write(line)
        self._pending += 1
        if self._pending >= _FSYNC_EVERY:
            self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0

    def close(self) -> None:
        self._sync()
        self._fh.close()


def _load_checkpoint(path: str | Path, start: int, end: int) -> tuple[dict[int, tuple], int]:
    """Rows for n in [start, end] from the checkpoint's intact prefix, and
    that prefix's length in bytes.

    The prefix ends before the first line that is not a record's report
    row (see _row_from_line): a crash mid-write leaves such a torn tail,
    and everything from it on is recomputed.
    """
    p = Path(path)
    if not p.exists():
        return {}, 0
    done: dict[int, tuple] = {}
    intact = 0
    with open(p, "rb") as fh:
        for line in fh:
            try:
                row = _row_from_line(line.decode())
            except ValueError:
                break
            if start <= row[0] <= end:
                done[row[0]] = row
            intact += len(line)
    return done, intact


def _solve_block(ns: list[int]) -> list[tuple]:
    return [_row(solve(n)) for n in ns]


def _solve_stream(pending: Iterator[int], workers: int) -> Iterator[tuple]:
    if workers == 1:
        for n in pending:
            yield _row(solve(n))
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
                    yield from inflight.popleft().result()
            while inflight:
                yield from inflight.popleft().result()
        finally:
            for future in inflight:
                future.cancel()


def sweep_rows(config: SweepConfig) -> Iterator[tuple]:
    """One row per n in [start, end], in n order, produced as it is needed.

    Deterministic for any worker count.  With a checkpoint path, rows
    already on disk are loaded instead of recomputed, and each new row is
    appended to the checkpoint before it is yielded; an unwritable
    checkpoint fails before any computation starts.  Memory grows with the
    number of rows loaded from the checkpoint, not with the range.
    """
    done: dict[int, tuple] = {}
    writer = None
    if config.checkpoint_path is not None:
        done, intact = _load_checkpoint(config.checkpoint_path, config.start, config.end)
        writer = _CheckpointWriter(config.checkpoint_path, intact)
    span = range(config.start, config.end + 1)
    solved = _solve_stream((n for n in span if n not in done), config.workers)
    try:
        for n in span:
            row = done.get(n)
            if row is None:
                row = next(solved)
                if writer is not None:
                    writer.append(_csv_line(row))
            yield row
    finally:
        solved.close()
        if writer is not None:
            writer.close()


def sweep_range(config: SweepConfig) -> list[SweepRecord]:
    """One record per n in [start, end], ordered by n: the rows of
    sweep_rows(config) as SweepRecords, whose detail is None."""
    return [_record_of(row) for row in sweep_rows(config)]


def method_histogram(records: Iterable[SweepRecord]) -> dict[str, int]:
    """Method tag -> count, for reporting."""
    hist: dict[str, int] = {}
    for rec in records:
        tag = rec.method.value if rec.method is not None else "(none)"
        hist[tag] = hist.get(tag, 0) + 1
    return hist
