"""Command-line interface.

Subcommands: decompose, two-term, oracle, sweep, stats.  Exit codes:
0 success, 1 proven non-existence (decompose), 2 usage error, 3 I/O or
overflow error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import closing
from pathlib import Path
from typing import Iterable, Iterator

from .construct_th34 import DEFAULT_K_BOUND
from .core_arith import CheckedOverflowError, is_prime
from .oracle import OracleQuery, enumerate_three_term
from .sweep import (
    SweepConfig,
    Status,
    _report_rows,
    emit_rows,
    record_to_obj,
    solve,
    sweep_rows,
    write_rows,
)
from .two_term import solve_two_term


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.k_bound < 1:
        raise ValueError(f"--k-bound must be >= 1, got {args.k_bound}")
    rec = solve(args.n, args.k_bound)
    if args.json:
        print(json.dumps(record_to_obj(rec)))
        if rec.status is Status.SOLVED:
            return 0
        return 1 if rec.status is Status.NO_DISTINCT_SOLUTION else 3
    if rec.status is Status.SOLVED:
        print(f"4/{rec.n} = 1/{rec.x1} + 1/{rec.x2} + 1/{rec.x3}")
        print(f"method: {rec.method.value}   hard: {'true' if rec.hard else 'false'}")
        return 0
    if rec.status is Status.NO_DISTINCT_SOLUTION:
        print(
            f"4/{args.n} has no decomposition into three distinct unit fractions:"
            " the finite window on the smallest part was scanned exhaustively,"
            " so this is a proof of non-existence."
        )
        repeats = enumerate_three_term(
            OracleQuery(4, args.n, distinct_only=False, limit=1)
        )
        if repeats:
            t = repeats[0]
            print(f"with repeats allowed: 4/{args.n} = 1/{t.x1} + 1/{t.x2} + 1/{t.x3}")
        return 1
    print(f"error: {rec.detail}", file=sys.stderr)
    return 3


def _cmd_two_term(args: argparse.Namespace) -> int:
    sol = solve_two_term(args.q, args.p)
    if sol is not None:
        print(f"{args.q}/{args.p} = 1/{sol.x1} + 1/{sol.x2}")
        return 0
    if args.p > 1 and is_prime(args.p):
        print(
            f"no distinct two-term decomposition of {args.q}/{args.p} exists:"
            f" {args.p} is prime and {args.p} + 1 is not divisible by {args.q}"
        )
    else:
        print(
            f"the closed-form constructor does not apply to {args.q}/{args.p};"
            " for composite denominators that does not rule out a solution"
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.limit is not None and not args.all:
        raise ValueError("--limit needs --all")
    distinct = not args.allow_repeats
    if args.count:
        found = enumerate_three_term(OracleQuery(args.a, args.n, distinct))
        print(len(found))
        return 0
    limit = args.limit if args.all else 1
    found = enumerate_three_term(OracleQuery(args.a, args.n, distinct, limit))
    if not found:
        kind = "distinct " if distinct else ""
        print(
            f"no {kind}three-term decomposition of {args.a}/{args.n} exists"
            " (window scan exhausted)"
        )
        return 0
    for t in found:
        print(f"{args.a}/{args.n} = 1/{t.x1} + 1/{t.x2} + 1/{t.x3}")
    return 0


def _tally(counts: dict[str, int]) -> tuple[int, int, int, int]:
    """Solved, no-distinct, error and hard counts from counts of status tags
    and of "hard" (as _counted or write_rows makes them)."""
    return (counts[Status.SOLVED.value], counts[Status.NO_DISTINCT_SOLUTION.value],
            counts[Status.ERROR.value], counts["hard"])


def _counted(rows: Iterable[tuple], counts: Counter) -> Iterator[tuple]:
    """rows, passed through while counting their status tags and, as "hard",
    the hard ones."""
    for row in rows:
        counts[row[5]] += 1
        counts["hard"] += row[6]
        yield row


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        start=args.start,
        end=args.end,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
    )
    # closing: a report write that fails still stops the pool and closes the checkpoint
    with closing(sweep_rows(config)) as pairs:
        if not args.report:
            write_rows(pairs, args.format, sys.stdout)
            return 0
        counts = emit_rows(pairs, args.format, args.report)
    solved, missing, errors, hard = _tally(counts)
    print(
        f"{solved + missing + errors} records -> {args.report}"
        f" (solved {solved}, no-distinct {missing}, errors {errors}, hard {hard})"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    counts: Counter = Counter()
    rows = _counted(_report_rows(args.report_path), counts)
    hist = Counter(row[1] or "(none)" for row in rows)
    solved, missing, errors, hard = _tally(counts)
    print(
        f"records: {solved + missing + errors}  solved: {solved}  no-distinct: {missing}"
        f"  errors: {errors}  hard: {hard}"
    )
    print("method histogram:")
    for tag, count in sorted(hist.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {tag:<20} {count}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourovern",
        description="Decompose 4/n into three distinct unit fractions and sweep ranges of n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="solve 4/n and print the construction used")
    p.add_argument("n", type=int)
    p.add_argument(
        "--k-bound", type=int, default=DEFAULT_K_BOUND, help="witness search bound on odd k"
    )
    p.add_argument("--json", action="store_true", help="print the record as JSON")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("two-term", help="closed-form q/p = 1/x1 + 1/x2 with x1 != x2")
    p.add_argument("q", type=int)
    p.add_argument("p", type=int)
    p.set_defaults(func=_cmd_two_term)

    p = sub.add_parser("oracle", help="exhaustive enumeration of a/n = 1/x + 1/y + 1/z")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="print every triple, not only the first")
    mode.add_argument("--count", action="store_true", help="print the number of triples")
    p.add_argument("--allow-repeats", action="store_true", help="allow equal parts")
    p.add_argument("--limit", type=int, default=None, help="cap --all output")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="solve every n in [start, end] and report")
    p.add_argument("start", type=int)
    p.add_argument("end", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", default=None, help="CSV checkpoint path (resumable)")
    p.add_argument("--report", default=None, help="report destination (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("stats", help="method histogram and hard-class count of a report")
    p.add_argument("report_path", type=Path)
    p.set_defaults(func=_cmd_stats)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except CheckedOverflowError as exc:
        print(f"arithmetic overflow: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
