"""Exact arithmetic on dyadic rationals and dyadic intervals.

Everything downstream (martingales, measures, the induced functions) is
keyed on half-open dyadic intervals ``[j*2^-n, (j+1)*2^-n)``.  Indices are
plain Python integers, so depth is limited only by an explicit cap, not by
float resolution.  All operations here are pure and all types immutable.
"""

from __future__ import annotations

import numbers
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
    Addition, subtraction, multiplication and comparison are exact.
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

    def _common(self, other: "DyadicRational"):
        e = max(self.exponent, other.exponent)
        return (self.numerator << (e - self.exponent),
                other.numerator << (e - other.exponent), e)

    def __add__(self, other):
        other = DyadicRational.from_value(other)
        a, b, e = self._common(other)
        return DyadicRational(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        other = DyadicRational.from_value(other)
        a, b, e = self._common(other)
        return DyadicRational(a - b, e)

    def __rsub__(self, other):
        return DyadicRational.from_value(other) - self

    def __neg__(self):
        return DyadicRational(-self.numerator, self.exponent)

    def __mul__(self, other):
        other = DyadicRational.from_value(other)
        return DyadicRational(self.numerator * other.numerator,
                              self.exponent + other.exponent)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        other = DyadicRational.from_value(other)
        a, b, _ = self._common(other)
        return (a > b) - (a < b)

    def __eq__(self, other):
        # the ABC last: its check is slow, and only numpy numbers reach it
        if not isinstance(other, (DyadicRational, int, float, Fraction, numbers.Rational)):
            return NotImplemented
        try:
            return self._cmp(other) == 0
        except (ValueError, OverflowError):  # not dyadic, or not finite
            return False

    def __hash__(self):
        # equal numbers hash alike, as int, float and Fraction do
        return hash(self.as_fraction())

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        return f"{self.numerator}/2^{self.exponent}"


ZERO = DyadicRational(0, 0)


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

    @property
    def length(self) -> DyadicRational:
        return DyadicRational(1, self.level)

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
        total = ZERO
        for iv in self.intervals:
            total = total + iv.length
        return total


def whitney(x: Real, h: Real, max_depth: int = DEFAULT_MAX_DEPTH) -> WhitneyDecomposition:
    """Greedy tiling of [x, x+h) by maximal dyadic intervals.

    Walks from the left endpoint, emitting at each step the largest dyadic
    interval that starts there and fits.  For dyadic-rational endpoints the
    tiling is finite and exact; if it would need levels beyond the cap a
    DepthCapError is raised (truncation is never silent).
    """
    a = DyadicRational.from_value(x)
    h = DyadicRational.from_value(h)
    if not (ZERO < h):
        raise DomainError("h must be positive")
    end = a + h
    pieces: list[DyadicInterval] = []
    while a < end:
        rem = end - a
        # coarsest level at which a is aligned
        n = a.exponent
        # piece must also fit: 2^-n <= rem
        while DyadicRational(1, n) > rem:
            n += 1
        if n > max_depth:
            raise DepthCapError(
                f"whitney tiling of [{x}, {x}+{h}) needs level {n} > max depth {max_depth}")
        piece = DyadicInterval(n, a.floor_scaled(n))
        pieces.append(piece)
        a = piece.right
    return WhitneyDecomposition(DyadicRational.from_value(x), h, tuple(pieces))
