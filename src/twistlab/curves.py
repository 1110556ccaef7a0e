"""Weierstrass curves D*y^2 = f(x), their chord-tangent group law, and the
explicit degree-2 and degree-3 isogenies used by the twist constructions.

Coordinates live either in Q (`Fraction`) or in the rational function field
Q(u) (`RatFunc`); the group law is written once over a generic field element
type.  The law acts directly on the model D*y^2 = f(x) so that points can be
used verbatim, without short-Weierstrass coordinate changes.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import CheckError, RatFunc, Record, UniPoly, compose, discriminant_cubic, is_squarefree_int


class CurveError(CheckError, ValueError):
    """A curve, point, or isogeny violated one of its construction hypotheses."""


class CubicCurve(Record):
    """y^2 = f(x) with f a monic nonsingular cubic over Q."""

    __slots__ = ("f",)

    def __init__(self, f: UniPoly):
        if f.degree != 3 or f.leading() != 1:
            raise CurveError("curve cubic must be monic of degree 3")
        if discriminant_cubic(f) == 0:
            raise CurveError("singular cubic: repeated root (discriminant is zero)")
        super().__init__(f)


class CurvePoint(Record):
    """Affine point (x, y) or the point at infinity (x is None)."""

    __slots__ = ("x", "y")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def has_nonconstant_x(self) -> bool:
        return isinstance(self.x, RatFunc) and not self.x.is_constant()


INFINITY = CurvePoint(None, None)


def on_twist(d: Fraction | RatFunc, f: UniPoly, pt: CurvePoint) -> bool:
    """Exact test of d*y^2 == f(x) for d and the coordinates in Q or Q(u);
    infinity is on every twist, and d itself is not checked.

    With d = dn/dd, x = xn/xd and y = yn/yd, the test is
    dn*yn^2*xd^n == F(xn, xd)*dd*yd^2 in Q[u] for F the degree-n
    homogenization of f, so no quotient is reduced; a rational value is
    read as a constant of Q(u)."""
    if pt.is_infinity:
        return True
    d, x, y = (v if isinstance(v, RatFunc) else RatFunc(v) for v in (d, pt.x, pt.y))
    n = max(f.degree, 0)
    return d.num * y.num * y.num * x.den ** n == f.eval_homog(x.num, x.den, n) * d.den * y.den * y.den


class TwistedCurve(Record):
    """D*y^2 = f(x) for a nonzero twisting element D.

    D in Q must be a squarefree integer (Q-twists are produced by
    specialization, which normalizes the square class); D in Q(u) is any
    nonzero rational function, usually the squarefree twist polynomial g.
    """

    __slots__ = ("base", "d")

    def __init__(self, base: CubicCurve, d: Fraction | RatFunc):
        super().__init__(base, d)
        self.__post_init__()

    def __post_init__(self):
        # kept apart from __init__ as the one place that checks D, so that
        # bench/tracer.py can count constructions by wrapping it
        d = self.d
        if isinstance(d, RatFunc):
            if d.is_zero():
                raise CurveError("twist by zero")
            return
        d = Fraction(d)
        if d == 0:
            raise CurveError("twist by zero")
        if d.denominator != 1 or not is_squarefree_int(d.numerator):
            raise CurveError("rational twist constant must be a squarefree integer")
        self.d = d

    # -- membership ----------------------------------------------------------

    def contains(self, pt: CurvePoint) -> bool:
        """Exact symbolic test of D*y^2 == f(x)."""
        return on_twist(self.d, self.base.f, pt)

    # -- group law -----------------------------------------------------------

    def add(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        """Chord-tangent addition on D*y^2 = f(x); infinity is the identity."""
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        if p.x == q.x:
            if p.y + q.y == 0:
                return INFINITY
            # tangent: implicit differentiation of D y^2 = f(x)
            slope = self.base.f.derivative()(p.x) / (2 * self.d * p.y)
        else:
            slope = (q.y - p.y) / (q.x - p.x)
        x3 = self.d * slope * slope - self.base.f.coeff(2) - p.x - q.x
        y3 = -(p.y + slope * (x3 - p.x))
        return CurvePoint(x3, y3)


# ---------------------------------------------------------------------------
# Explicit isogenies
# ---------------------------------------------------------------------------


class Isogeny(Record):
    """(X, Y) -> (phi_x(X), Y*phi_y(X)) from `source` to `target`.

    The defining identity f_target(phi_x(X)) = f_source(X) * phi_y(X)^2 is
    verified symbolically at construction.
    """

    __slots__ = ("source", "target", "phi_x", "phi_y")

    def __init__(self, source: CubicCurve, target: CubicCurve, phi_x: RatFunc, phi_y: RatFunc):
        if compose(target.f, phi_x) != RatFunc(source.f) * phi_y * phi_y:
            raise CurveError("isogeny identity f_target(phi_x) = f_source * phi_y^2 failed")
        super().__init__(source, target, phi_x, phi_y)


def two_isogeny_quotient(curve: CubicCurve) -> Isogeny:
    """Degree-2 isogeny from the quotient of `curve` by its 2-torsion point (0, 0).

    For f = x*(x^2 + A*x + B) the quotient curve is
    Y^2 = X*(X^2 - 2A*X + (A^2 - 4B)) and the map back down is
    phi_x = (X^2 - 2A*X + A^2 - 4B)/(4X), phi_y = (X^2 - (A^2 - 4B))/(8X^2).
    """
    f = curve.f
    if f.coeff(0) != 0:
        raise CurveError("(0, 0) is not on the curve: the cubic needs zero constant term")
    a_, b_ = f.coeff(2), f.coeff(1)
    disc_q = a_ * a_ - 4 * b_
    quotient = CubicCurve(UniPoly([0, disc_q, -2 * a_, 1]))
    phi_x = RatFunc(UniPoly([disc_q, -2 * a_, 1]), UniPoly([0, 4]))
    phi_y = RatFunc(UniPoly([-disc_q, 0, 1]), UniPoly([0, 0, 8]))
    return Isogeny(source=quotient, target=curve, phi_x=phi_x, phi_y=phi_y)


def three_isogeny(b: Fraction, c: Fraction) -> Isogeny:
    """Degree-3 isogeny onto E: y^2 = x^3 + (b^2/4c)x^2 + bx + c from the curve
    it is 3-isogenous to via its order-3 subgroup {O, (0, +-sqrt(c))}.

    The source cubic is
        X^3 - (3b^2/4c)X^2 + (b(b^3 - 54c^2)/6c^2)X - (b^3 - 54c^2)^2/(108c^3)
    and the map is the rescaled quotient of the source by its own order-3
    subgroup at X = 0.  Requires b*c != 0 and b^3 != 54*c^2 (nonsingularity).
    """
    b, c = Fraction(b), Fraction(c)
    if b * c == 0:
        raise CurveError("three_isogeny requires b*c != 0")
    if b ** 3 == 54 * c ** 2:
        raise CurveError("three_isogeny requires b^3 != 54*c^2 (singular model)")
    m = b ** 3 - 54 * c ** 2
    target = CubicCurve(UniPoly([c, b, b * b / (4 * c), 1]))
    a4s = b * m / (6 * c * c)
    a6s = -(m ** 2) / (108 * c ** 3)
    source = CubicCurve(UniPoly([a6s, a4s, -3 * b * b / (4 * c), 1]))
    # quotient of the source by its X = 0 subgroup, then (x, y) -> ((x - b^2/c)/9, y/27)
    phi_x = RatFunc(UniPoly([4 * a6s, 2 * a4s, -b * b / c, 1]), UniPoly([0, 0, 9]))
    phi_y = RatFunc(UniPoly([-8 * a6s, -2 * a4s, 0, 1]), UniPoly([0, 0, 0, 27]))
    return Isogeny(source=source, target=target, phi_x=phi_x, phi_y=phi_y)
