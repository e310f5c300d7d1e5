from fractions import Fraction

import pytest

from mucube.exact import SqrtLength, frac_str


def test_construction_and_equality():
    a = SqrtLength.of(4, 17)
    assert a == SqrtLength(16 * 17)
    assert a != SqrtLength.of(4, 18)
    assert SqrtLength.of(4, 1) == 4
    assert SqrtLength.of(Fraction(1, 2), 4) == 1


def test_multiplier_extraction():
    a = SqrtLength.of(Fraction(7, 2), 5)
    assert a.multiplier_of_sqrt(5) == Fraction(7, 2)
    with pytest.raises(ValueError):
        a.multiplier_of_sqrt(3)


def test_arithmetic_and_order():
    a = SqrtLength.of(2, 5)
    assert a * a == 20
    assert (a * 3).sq == 180
    assert (a / 2).sq == 5
    assert SqrtLength.of(1, 2) < SqrtLength.of(3, 1) <= SqrtLength.of(3, 1)


def test_str_forms():
    assert str(SqrtLength.of(4, 17)) == "4*sqrt(17)"
    assert str(SqrtLength.of(4, 1)) == "4"
    assert str(SqrtLength.of(1, 17)) == "sqrt(17)"
    assert str(SqrtLength.of(Fraction(1, 17), 17)) == "1/17*sqrt(17)"
    assert str(SqrtLength.of(2, 8)) == "4*sqrt(2)"


def test_frac_str():
    assert frac_str(Fraction(3, 2)) == "3/2"
    assert frac_str(Fraction(4)) == "4"
