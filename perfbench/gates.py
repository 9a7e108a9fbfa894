"""Correctness gates for benchmark outputs, using only the standard library.

Every output is a headerless CSV of n,method,x1,x2,x3,status,hard rows,
the format of fourovern's sweep report.  The checks share no code with
the package under test.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from math import isqrt

# sha256 of the CSV report of `fourovern sweep 3 100000`, pinned from the
# commit that introduced this benchmark.  Any worker count or resume must
# reproduce it byte for byte.
SWEEP_1E5_CSV_SHA256 = "d1f31791d74d27be4043b84607ec2c5aeddc235e19853061768463ff1f491436"


class GateError(AssertionError):
    """An output of the program is wrong."""


def triple_ok(n: int, x1: int, x2: int, x3: int) -> bool:
    """1/x1 + 1/x2 + 1/x3 == 4/n exactly, with 0 < x1 < x2 < x3."""
    return (0 < x1 < x2 < x3
            and Fraction(1, x1) + Fraction(1, x2) + Fraction(1, x3) == Fraction(4, n))


def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def check_rows(rows: list[list[str]], ns, hard_of=None) -> list[int]:
    """Check one row per n of ns, in order; return the n of the Error rows.

    Solved rows must hold a valid distinct triple, no n >= 3 may report
    NoDistinctSolution, and when hard_of is given each row's hard flag must
    equal hard_of(n).  Raises GateError on the first wrong row.
    """
    ns = list(ns)
    if len(rows) != len(ns):
        raise GateError(f"expected {len(ns)} records, got {len(rows)}")
    errors = []
    for row, n in zip(rows, ns):
        if len(row) != 7 or int(row[0]) != n:
            raise GateError(f"expected a record for n={n}, got {row!r}")
        _, method, x1, x2, x3, status, hard = row
        if hard not in ("true", "false"):
            raise GateError(f"bad hard flag in {row!r}")
        if status == "Solved":
            if not triple_ok(n, int(x1), int(x2), int(x3)):
                raise GateError(f"wrong triple for n={n}: {row!r}")
        elif status == "Error":
            errors.append(n)
        elif status == "NoDistinctSolution":
            if n >= 3:
                raise GateError(f"n={n} >= 3 reported NoDistinctSolution")
        else:
            raise GateError(f"unknown status in {row!r}")
        if hard_of is not None and (hard == "true") != hard_of(n):
            raise GateError(f"hard flag of n={n} is {hard}, expected {hard_of(n)}")
    return errors


def method_counts(rows: list[list[str]]) -> dict[str, int]:
    """Method tag -> number of rows; rows without a method count as "none"."""
    counts: dict[str, int] = {}
    for row in rows:
        tag = row[1] or "none"
        counts[tag] = counts.get(tag, 0) + 1
    return counts


def primes_up_to(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def hard_set(limit: int) -> list[int]:
    """All 2 <= n <= limit whose prime factors are all 1 (mod 24)."""
    excluded = bytearray(limit + 1)
    for p in primes_up_to(limit):
        if p % 24 != 1:
            excluded[p :: p] = b"\x01" * len(range(p, limit + 1, p))
    return [n for n in range(2, limit + 1) if not excluded[n]]


def is_hard(n: int, primes: list[int]) -> bool:
    """Whether every prime factor of n is 1 (mod 24).

    primes must hold every prime up to isqrt(n).  n not 1 (mod 24) needs no
    factoring: a product of primes that are all 1 (mod 24) is 1 (mod 24).
    """
    if n % 24 != 1:
        return False
    m = n
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            if p % 24 != 1:
                return False
            while m % p == 0:
                m //= p
    return m % 24 == 1
