"""Shared value types for three-term unit-fraction decompositions."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core_arith import Fraction, unit_sum


class Method(Enum):
    """Which construction produced a triple (stable tags used in reports)."""

    EVEN = "Even"
    MOD3_IS_2 = "Mod3Is2"
    MOD3_IS_0 = "Mod3Is0"
    MOD4_IS_3 = "Mod4Is3"
    PRIME_LIFT = "PrimeLift"
    PRIME_13_MOD_24 = "Prime13Mod24"
    THEOREM_4 = "Theorem4"
    THEOREM_3_SEARCH = "Theorem3Search"
    ORACLE = "Oracle"
    NO_DISTINCT_SOLUTION = "NoDistinctSolution"


class ConstructionError(ValueError):
    """A candidate triple failed validation (wrong sum, or repeated parts)."""


@dataclass(frozen=True)
class UnitTriple:
    """Sorted parts (x1 <= x2 <= x3) with 1/x1 + 1/x2 + 1/x3 == target exactly.

    Constructors only ever emit strictly increasing triples; equal parts
    appear only in oracle enumerations that explicitly allow repeats.
    """

    x1: int
    x2: int
    x3: int
    target_num: int
    target_den: int
    method: Method

    @property
    def values(self) -> tuple[int, int, int]:
        return (self.x1, self.x2, self.x3)

    @property
    def target(self) -> Fraction:
        return Fraction(self.target_num, self.target_den)

    def __str__(self) -> str:
        return (
            f"{self.target_num}/{self.target_den}"
            f" = 1/{self.x1} + 1/{self.x2} + 1/{self.x3}"
        )


def make_triple(
    values: Iterable[int],
    target_num: int,
    target_den: int,
    method: Method,
    *,
    require_distinct: bool = True,
) -> UnitTriple:
    """Sort, validate and wrap a candidate triple.

    The exact-sum check is unconditional; no formula is trusted.  Raises
    ConstructionError when the parts do not sum to the target or (with
    require_distinct) are not pairwise distinct.
    """
    a, b, c = sorted(values)
    if a < 1:
        raise ConstructionError(f"nonpositive part in {(a, b, c)}")
    if require_distinct and not (a < b < c):
        raise ConstructionError(
            f"repeated parts in {(a, b, c)} for {target_num}/{target_den}"
        )
    if unit_sum((a, b, c)) != Fraction(target_num, target_den):
        raise ConstructionError(
            f"{(a, b, c)} does not sum to {target_num}/{target_den}"
        )
    return UnitTriple(a, b, c, target_num, target_den, method)
