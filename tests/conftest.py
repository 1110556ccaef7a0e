"""Shared helpers for the test suite."""

from fractions import Fraction
from functools import reduce

from twistlab.exactmath import ONE, RatFunc, UniPoly, square_class


def upoly(*coeffs) -> UniPoly:
    return UniPoly([Fraction(c) for c in coeffs])


def same_square_class(a, b) -> bool:
    """True when a/b is the square of a rational function."""
    ra = a if isinstance(a, RatFunc) else RatFunc(a)
    rb = b if isinstance(b, RatFunc) else RatFunc(b)
    k, _ = square_class(ra / rb)
    return k == ONE


def coord_height(q: Fraction) -> int:
    return max(abs(q.numerator), q.denominator)


def multiple(curve, n: int, p):
    """n*P for n >= 1 on a TwistedCurve, by repeated addition."""
    return reduce(curve.add, [p] * n)
