"""Exact scalar helpers shared across the package.

Every length that appears in this project is a rational multiple of the
square root of a rational number (segment lengths in a fixed rational
direction (p, q) are rational multiples of sqrt(p^2 + q^2)).  ``SqrtLength``
stores the *square* of the value, which is an exact ``Fraction``, so equality
and arithmetic never touch floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, sqrt
from typing import Union

Rat = Union[int, Fraction]


def _square_free_split(n: int) -> tuple[int, int]:
    """Return (a, b) with n = a^2 * b and b square-free (n >= 1)."""
    a, b = 1, 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            a *= d ** (e // 2)
            if e % 2:
                b *= d
        d += 1 if d == 2 else 2
    return a, b * m


class SqrtLength:
    """A nonnegative exact quantity of the form (rational) * sqrt(rational)."""

    __slots__ = ("sq",)

    def __init__(self, square: Rat):
        sq = Fraction(square)
        if sq < 0:
            raise ValueError("SqrtLength stores a squared value; it cannot be negative")
        self.sq = sq

    @classmethod
    def of(cls, multiplier: Rat, radicand: Rat = 1) -> "SqrtLength":
        m = Fraction(multiplier)
        return cls(m * m * Fraction(radicand))

    def multiplier_of_sqrt(self, radicand: Rat) -> Fraction:
        """The exact m with self = m * sqrt(radicand); raises if irrational."""
        ratio = self.sq / Fraction(radicand)
        num, den = ratio.numerator, ratio.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError(f"{self} is not a rational multiple of sqrt({radicand})")
        return Fraction(rn, rd)

    def __mul__(self, other) -> "SqrtLength":
        if isinstance(other, SqrtLength):
            return SqrtLength(self.sq * other.sq)
        o = Fraction(other)
        return SqrtLength(self.sq * o * o)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SqrtLength":
        if isinstance(other, SqrtLength):
            return SqrtLength(self.sq / other.sq)
        o = Fraction(other)
        return SqrtLength(self.sq / (o * o))

    def __eq__(self, other) -> bool:
        if isinstance(other, SqrtLength):
            return self.sq == other.sq
        if isinstance(other, (int, Fraction)):
            o = Fraction(other)
            return o >= 0 and self.sq == o * o
        return NotImplemented

    def __lt__(self, other) -> bool:
        other = other if isinstance(other, SqrtLength) else SqrtLength.of(other)
        return self.sq < other.sq

    def __le__(self, other) -> bool:
        other = other if isinstance(other, SqrtLength) else SqrtLength.of(other)
        return self.sq <= other.sq

    def __hash__(self):
        return hash(("SqrtLength", self.sq))

    def __float__(self) -> float:
        return sqrt(self.sq)

    def __str__(self) -> str:
        # Pull the square part out of the radicand for readability.
        num, den = self.sq.numerator, self.sq.denominator
        an, bn = _square_free_split(num)
        ad, bd = _square_free_split(den)
        mult = Fraction(an, ad * bd)
        rad = bn * bd
        if rad == 1:
            return str(mult)
        if mult == 1:
            return f"sqrt({rad})"
        return f"{mult}*sqrt({rad})"

    def __repr__(self) -> str:
        return f"SqrtLength({self})"


def frac_str(x: Rat) -> str:
    """Serialize an exact rational as 'num/den' (plain integer when den = 1)."""
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
