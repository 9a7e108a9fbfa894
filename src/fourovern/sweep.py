"""Per-n solving pipeline, range sweeps with checkpoint/resume, and reports.

solve() composes the constructive machinery cheapest-first: closed-form
paths and prime lifting, then the divisor-pair search, then the bounded
witness search, then the exhaustive oracle.  n = 2 genuinely has no
decomposition into three distinct unit fractions and is reported as such,
not as an error.

sweep_range produces one record per n, ordered by n and byte-identical
regardless of worker count.  A checkpoint is a JSON-lines file, appended
in n order and fsynced every 1000 records, so a killed sweep resumes from
its completed prefix.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
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

def record_to_obj(rec: SweepRecord) -> dict:
    return {
        "n": rec.n,
        "method": rec.method.value if rec.method is not None else None,
        "x1": rec.x1,
        "x2": rec.x2,
        "x3": rec.x3,
        "status": rec.status.value,
        "hard": rec.hard,
    }


def _record(n, method, x1, x2, x3, status, hard) -> SweepRecord:
    """The record with these fields if they have the types the writers emit:
    int n, bool hard, known tags, and three int parts iff status is Solved."""
    method = Method(method) if method is not None else None
    status = Status(status)
    want = int if status is Status.SOLVED else type(None)
    if not (type(n) is int and type(hard) is bool and type(x1) is type(x2) is type(x3) is want):
        raise ValueError(
            f"n={n!r}, parts ({x1!r}, {x2!r}, {x3!r}), hard={hard!r}: not a {status.value} record"
        )
    return SweepRecord(n, method, x1, x2, x3, status, hard)


def record_from_obj(obj: dict) -> SweepRecord:
    return _record(
        obj["n"], obj["method"], obj["x1"], obj["x2"], obj["x3"], obj["status"], obj["hard"]
    )


def _record_to_csv_row(rec: SweepRecord) -> list[str]:
    return [
        str(rec.n),
        rec.method.value if rec.method is not None else "",
        str(rec.x1) if rec.x1 is not None else "",
        str(rec.x2) if rec.x2 is not None else "",
        str(rec.x3) if rec.x3 is not None else "",
        rec.status.value,
        "true" if rec.hard else "false",
    ]


def _record_from_csv_row(row: list[str]) -> SweepRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {row!r}")
    n, method, x1, x2, x3, status, hard = row
    x1, x2, x3 = (int(x) if x else None for x in (x1, x2, x3))
    hard = {"true": True, "false": False}[hard]
    return _record(int(n), method or None, x1, x2, x3, status, hard)


def write_report(records: Iterable[SweepRecord], format: str, fh: TextIO) -> None:
    """Write records to fh as CSV rows n,method,x1,x2,x3,status,hard or as
    a JSON array of objects with those field names.

    Absent triple fields serialize as empty (CSV) or null (JSON).  CSV has
    no header row, so the row count equals the number of records.
    """
    if format == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        for rec in records:
            writer.writerow(_record_to_csv_row(rec))
    elif format == "json":
        json.dump([record_to_obj(r) for r in records], fh, indent=1)
        fh.write("\n")
    else:
        raise ValueError(f"unknown report format: {format!r}")


def emit_report(records: list[SweepRecord], format: str, destination: str | Path) -> None:
    """Write the report (see write_report) to the file at destination, replacing it.

    Records must be sorted by n; otherwise ValueError is raised before the
    file is touched.
    """
    if any(a.n >= b.n for a, b in zip(records, records[1:])):
        raise ValueError("records must be sorted by n")
    path = Path(destination)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_report(records, format, fh)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def load_report(source: str | Path, format: str | None = None) -> list[SweepRecord]:
    """Read a report back; format inferred from the content when not given.

    A row or element that is not a record raises ValueError naming it.
    """
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    if format is None:
        format = "json" if text.lstrip().startswith("[") else "csv"
    if format == "json":
        items, parse, kind = json.loads(text), record_from_obj, "element"
    else:
        items = [row for row in csv.reader(text.splitlines()) if row]
        parse, kind = _record_from_csv_row, "row"
    records = []
    for i, item in enumerate(items, 1):
        try:
            records.append(parse(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {kind} {i} is not a record: {exc!r}") from exc
    return records


# ---------------------------------------------------------------------------
# sweeping

class _CheckpointWriter:
    """Append-only JSON-lines writer, fsynced every _FSYNC_EVERY records.

    The file is first cut back to its first keep_bytes bytes, so records
    are never appended onto a torn line.
    """

    def __init__(self, path: str | Path, keep_bytes: int) -> None:
        try:
            self._fh = open(path, "a", encoding="utf-8")
            self._fh.truncate(keep_bytes)
        except OSError as exc:
            raise OSError(f"cannot open checkpoint {path}: {exc}") from exc
        self._pending = 0

    def append(self, rec: SweepRecord) -> None:
        self._fh.write(json.dumps(record_to_obj(rec), separators=(",", ":")) + "\n")
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


def _load_checkpoint(
    path: str | Path, start: int, end: int
) -> tuple[dict[int, SweepRecord], int]:
    """Records in [start, end] from the checkpoint's intact prefix, and that
    prefix's length in bytes.

    The prefix ends before the first line that is not newline-terminated
    or is not a record as record_to_obj writes it (see _record): a crash
    mid-write leaves such a torn tail, and everything from it on is
    recomputed.
    """
    p = Path(path)
    if not p.exists():
        return {}, 0
    done: dict[int, SweepRecord] = {}
    intact = 0
    with open(p, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            if line.strip():
                try:
                    rec = record_from_obj(json.loads(line))
                except (ValueError, KeyError, TypeError):
                    break
                if start <= rec.n <= end:
                    done[rec.n] = rec
            intact += len(line)
    return done, intact


def _solve_block(ns: list[int]) -> list[SweepRecord]:
    return [solve(n) for n in ns]


def _solve_stream(pending: list[int], workers: int) -> Iterator[SweepRecord]:
    if not pending:
        return
    if workers == 1:
        for n in pending:
            yield solve(n)
        return
    # Fixed-size blocks picked up by whichever worker is free; results are
    # consumed in submission order, so output never depends on scheduling.
    blocks = [pending[i : i + _BLOCK_SIZE] for i in range(0, len(pending), _BLOCK_SIZE)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for records in pool.map(_solve_block, blocks):
            yield from records


def sweep_range(config: SweepConfig) -> list[SweepRecord]:
    """One record per n in [start, end], ordered by n.

    Deterministic for any worker count.  With a checkpoint path, records
    already on disk are loaded instead of recomputed and new ones are
    appended as they complete; an unwritable checkpoint fails before any
    computation starts.
    """
    done: dict[int, SweepRecord] = {}
    writer = None
    if config.checkpoint_path is not None:
        done, intact = _load_checkpoint(config.checkpoint_path, config.start, config.end)
        writer = _CheckpointWriter(config.checkpoint_path, intact)
    try:
        pending = [n for n in range(config.start, config.end + 1) if n not in done]
        for rec in _solve_stream(pending, config.workers):
            done[rec.n] = rec
            if writer is not None:
                writer.append(rec)
    finally:
        if writer is not None:
            writer.close()
    return [done[n] for n in range(config.start, config.end + 1)]


def method_histogram(records: Iterable[SweepRecord]) -> dict[str, int]:
    """Method tag -> count, for reporting."""
    hist: dict[str, int] = {}
    for rec in records:
        tag = rec.method.value if rec.method is not None else "(none)"
        hist[tag] = hist.get(tag, 0) + 1
    return hist
