"""Exact arithmetic on dyadic rationals and dyadic intervals.

Everything downstream (martingales, measures, the induced functions) is
keyed on half-open dyadic intervals ``[j*2^-n, (j+1)*2^-n)``.  Indices are
plain Python integers, so depth is limited only by an explicit cap, not by
float resolution.  All operations here are pure and all types immutable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

DEFAULT_MAX_DEPTH = 48

Real = Union[int, float, Fraction, "DyadicRational"]


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


class DepthCapError(RuntimeError):
    """An operation would need dyadic resolution beyond the configured cap."""


@dataclass(frozen=True, slots=True)
class DyadicRational:
    """Exact dyadic rational ``numerator * 2^-exponent`` in lowest terms.

    Normalization: the numerator is odd or zero; zero is stored as (0, 0).
    It is read from an int, float or Fraction (`from_value`), subtracts
    exactly, and converts exactly to a Fraction, to floor(x * 2^n) and,
    correctly rounded, to a float.  Equality and hashing are the
    dataclass's own, by field: two values are equal exactly when they are
    the same number, and a DyadicRational never equals an int, float or
    Fraction.
    """

    numerator: int
    exponent: int

    def __post_init__(self):
        num, exp = self.numerator, self.exponent
        if type(num) is not int or type(exp) is not int:
            # numpy integers become Python ints, whose shifts never wrap
            num, exp = operator.index(num), operator.index(exp)
            object.__setattr__(self, "numerator", num)
            object.__setattr__(self, "exponent", exp)
        if exp < 0:
            raise DomainError("exponent must be nonnegative")
        if num == 0:
            if exp != 0:
                object.__setattr__(self, "exponent", 0)
        elif num % 2 == 0 and exp > 0:
            shift = min(exp, (num & -num).bit_length() - 1)
            object.__setattr__(self, "numerator", num >> shift)
            object.__setattr__(self, "exponent", exp - shift)

    @staticmethod
    def from_value(x: Real) -> "DyadicRational":
        if isinstance(x, DyadicRational):
            return x
        if isinstance(x, int):
            return DyadicRational(x, 0)
        # exact for floats, Fractions and numpy integers alike
        frac = Fraction(x)
        den = frac.denominator
        if den & (den - 1):
            raise DomainError(f"{x!r} is not a dyadic rational")
        return DyadicRational(frac.numerator, den.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __float__(self) -> float:
        # int / int is correctly rounded, at any exponent
        return self.numerator / (1 << self.exponent)

    def floor_scaled(self, n: int) -> int:
        """floor(self * 2^n), exactly."""
        if n >= self.exponent:
            return self.numerator << (n - self.exponent)
        return self.numerator >> (self.exponent - n)

    def __sub__(self, other):
        other = DyadicRational.from_value(other)
        e = max(self.exponent, other.exponent)
        return DyadicRational((self.numerator << (e - self.exponent))
                              - (other.numerator << (e - other.exponent)), e)

    def __repr__(self):
        return f"{self.numerator}/2^{self.exponent}"


@dataclass(frozen=True, slots=True)
class DyadicInterval:
    """Half-open dyadic interval ``[index*2^-level, (index+1)*2^-level)``."""

    level: int
    index: int

    def __post_init__(self):
        if type(self.level) is not int or type(self.index) is not int:
            # numpy integers become Python ints, whose shifts never wrap
            object.__setattr__(self, "level", operator.index(self.level))
            object.__setattr__(self, "index", operator.index(self.index))
        if self.level < 0:
            raise DomainError("level must be nonnegative")

    @property
    def left(self) -> DyadicRational:
        return DyadicRational(self.index, self.level)

    @property
    def right(self) -> DyadicRational:
        return DyadicRational(self.index + 1, self.level)

    def contains(self, x: Real) -> bool:
        return locate(x, self.level) == self

    def children(self, max_depth: int = DEFAULT_MAX_DEPTH) -> tuple["DyadicInterval", "DyadicInterval"]:
        """Left and right halves; they partition self."""
        if self.level + 1 > max_depth:
            raise DepthCapError(
                f"children at level {self.level + 1} exceed max depth {max_depth}")
        return (DyadicInterval(self.level + 1, 2 * self.index),
                DyadicInterval(self.level + 1, 2 * self.index + 1))

    def left_half(self) -> "DyadicInterval":
        return DyadicInterval(self.level + 1, 2 * self.index)

    def parent(self) -> "DyadicInterval":
        if self.level == 0:
            raise DomainError("level-0 interval has no parent")
        return DyadicInterval(self.level - 1, self.index >> 1)

    def ancestor(self, level: int) -> "DyadicInterval":
        if level > self.level:
            raise DomainError("ancestor level must not exceed own level")
        return DyadicInterval(level, self.index >> (self.level - level))

    def __repr__(self):
        return f"[{self.index}/2^{self.level}, {self.index + 1}/2^{self.level})"


def unit_interval() -> DyadicInterval:
    return DyadicInterval(0, 0)


def locate(x: Real, n: int) -> DyadicInterval:
    """The unique level-n dyadic interval containing x (boundaries go right)."""
    if n < 0:
        raise DomainError("level must be nonnegative")
    if isinstance(x, DyadicRational):
        return DyadicInterval(n, x.floor_scaled(n))
    if isinstance(x, int):
        return DyadicInterval(n, x << n)
    if isinstance(x, float):
        num, den = x.as_integer_ratio()     # exact, as Fraction(x) reads it
        return DyadicInterval(n, (num << n) // den)
    frac = Fraction(x)  # exact, so boundary points resolve exactly
    # a numpy integer keeps its type as the numerator, and its shifts wrap
    return DyadicInterval(n, (operator.index(frac.numerator) << n) // frac.denominator)


@dataclass(frozen=True)
class WhitneyDecomposition:
    """Tiling of ``[x, x+h)`` by maximal dyadic intervals.

    ``intervals`` are consecutive; each rank occurs at most 4 times (the
    greedy maximal tiling achieves at most 2); every length is <= h.
    """

    x: DyadicRational
    h: DyadicRational
    intervals: tuple[DyadicInterval, ...]

    def per_rank_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for iv in self.intervals:
            counts[iv.level] = counts.get(iv.level, 0) + 1
        return counts

    def total_length(self) -> DyadicRational:
        top = max((iv.level for iv in self.intervals), default=0)
        return DyadicRational(sum(1 << (top - iv.level) for iv in self.intervals), top)


def whitney(x: Real, h: Real, max_depth: int = DEFAULT_MAX_DEPTH) -> WhitneyDecomposition:
    """Greedy tiling of [x, x+h) by maximal dyadic intervals.

    Walks numerators lo < end over 2^e, e the deeper exponent, emitting
    the largest piece of 2^k cells that starts at lo and fits: k at most
    e, the trailing zeros of lo and log2(end - lo).  The tiling is finite
    and exact; one that needs levels beyond the cap raises DepthCapError
    (truncation is never silent).
    """
    a = DyadicRational.from_value(x)
    h = DyadicRational.from_value(h)
    if h.numerator <= 0:
        raise DomainError("h must be positive")
    e = max(a.exponent, h.exponent)
    lo = a.numerator << (e - a.exponent)
    end = lo + (h.numerator << (e - h.exponent))
    pieces: list[DyadicInterval] = []
    while lo < end:
        k = min(e, (end - lo).bit_length() - 1)
        if lo:
            k = min(k, (lo & -lo).bit_length() - 1)
        if e - k > max_depth:
            raise DepthCapError(
                f"whitney tiling of [{x}, {x}+{h}) needs level {e - k} > max depth {max_depth}")
        pieces.append(DyadicInterval(e - k, lo >> k))
        lo += 1 << k
    return WhitneyDecomposition(a, h, tuple(pieces))
