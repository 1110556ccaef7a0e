"""Curves, points, the group law on D*y^2 = f(x), and the explicit isogenies."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import coord_height, multiple, upoly
from twistlab.curves import (
    INFINITY,
    CubicCurve,
    CurveError,
    CurvePoint,
    Isogeny,
    TwistedCurve,
    on_twist,
    three_isogeny,
    two_isogeny_quotient,
)
from twistlab.catalog import FAMILY_IDS, FamilySpec, build
from twistlab.exactmath import ONE, RatFunc, UniPoly, compose


def _curve_xxx() -> TwistedCurve:
    return TwistedCurve(CubicCurve(upoly(0, -1, 0, 1)), Fraction(1))  # y^2 = x^3 - x


def test_cubic_curve_validation():
    with pytest.raises(CurveError):
        CubicCurve(upoly(0, 0, 0, 1))  # triple root
    with pytest.raises(CurveError):
        CubicCurve(upoly(0, -1, 0, 2))  # not monic
    with pytest.raises(CurveError):
        CubicCurve(upoly(0, 1))  # wrong degree


def test_on_curve_membership():
    curve = _curve_xxx()
    assert curve.contains(INFINITY)
    assert curve.contains(CurvePoint(Fraction(0), Fraction(0)))
    assert not curve.contains(CurvePoint(Fraction(0), Fraction(1)))


def test_on_curve_function_field():
    # first displayed point of the degree-6 rank-2 family at (a, b) = (1, 2)
    g = upoly(4, 0, 1) * upoly(16, 0, 6, 0, 1) * -2
    curve = TwistedCurve(CubicCurve(upoly(0, 2, 1, 1)), RatFunc(g))
    pt = CurvePoint(RatFunc(upoly(-4, 0, -1), upoly(2)), RatFunc(ONE, upoly(4)))
    assert curve.contains(pt)
    # a constant d or y beside coordinates in Q(u)
    f = upoly(0, -1, 0, 1)
    assert on_twist(RatFunc(f), f, CurvePoint(RatFunc(upoly(0, 1)), Fraction(1)))
    assert not on_twist(Fraction(1), f, CurvePoint(RatFunc(upoly(0, 1)), Fraction(1)))


def test_identity_and_inverse():
    curve = _curve_xxx()
    p = CurvePoint(Fraction(0), Fraction(0))
    assert curve.add(p, INFINITY) == p
    assert curve.add(INFINITY, p) == p
    assert curve.add(p, CurvePoint(p.x, -p.y)) == INFINITY


def test_two_torsion_sum():
    # oracle: the three finite 2-torsion points form a Klein four-group with
    # infinity, so the sum of two of them must be the third
    curve = _curve_xxx()
    torsion = {Fraction(0), Fraction(1), Fraction(-1)}
    p = CurvePoint(Fraction(0), Fraction(0))
    q = CurvePoint(Fraction(1), Fraction(0))
    got = curve.add(p, q)
    (expected_x,) = torsion - {p.x, q.x}
    assert got == CurvePoint(expected_x, Fraction(0))
    assert expected_x == Fraction(-1)


def test_scalar_multiples():
    curve = _curve_xxx()
    p = CurvePoint(Fraction(0), Fraction(0))
    assert multiple(curve, 2, p) == INFINITY
    assert multiple(curve, 1, p) == p


def _specialized_points():
    # the degree-12 rank-3 family for y^2 = x^3 - x, specialized at u0 = 2
    d = Fraction(-29274)
    pts = [
        CurvePoint(Fraction(7, 75), Fraction(2, 1125)),
        CurvePoint(Fraction(-41, 27), Fraction(2, 243)),
        CurvePoint(Fraction(17, 24), Fraction(1, 288)),
    ]
    curve = TwistedCurve(CubicCurve(upoly(0, -1, 0, 1)), d)
    for p in pts:
        assert curve.contains(p)
    return curve, pts


def test_double_grows_height():
    curve, pts = _specialized_points()
    p3 = pts[2]
    doubled = multiple(curve, 2, p3)
    assert curve.contains(doubled)
    assert coord_height(doubled.x) > coord_height(p3.x)


def test_group_law_commutative_and_associative():
    curve, pts = _specialized_points()
    pool = list(pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            pool.append(curve.add(pts[i], pts[j]))
    pool.append(multiple(curve, 2, pts[0]))
    pool.append(INFINITY)
    rng = random.Random(0)
    for a in pool:
        for b in pool:
            assert curve.add(a, b) == curve.add(b, a)
    checked = 0
    while checked < 100:
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))
        checked += 1


def test_twist_constant_validation():
    base = CubicCurve(upoly(0, -1, 0, 1))
    with pytest.raises(CurveError):
        TwistedCurve(base, Fraction(0))
    with pytest.raises(CurveError):
        TwistedCurve(base, Fraction(12))  # 12 = 3 * 2^2 is not squarefree
    with pytest.raises(CurveError):
        TwistedCurve(base, Fraction(1, 2))
    assert TwistedCurve(base, Fraction(-6)).d == -6


def test_two_isogeny_quotient_curve():
    # y^2 = x(x - 1)(x - 4): quotient by (0,0) is Y^2 = X(X + 1)(X + 9)
    curve = CubicCurve(upoly(0, 4, -5, 1))
    iso = two_isogeny_quotient(curve)
    assert iso.source.f == upoly(0, 9, 10, 1)
    assert iso.target is curve
    # identity was verified symbolically at construction; re-check explicitly
    assert compose(curve.f, iso.phi_x) == RatFunc(iso.source.f) * iso.phi_y * iso.phi_y


def test_two_isogeny_maps_two_torsion():
    # a = 3, b = 2: phi_x vanishes at X = -(a-1)^2 b = -8
    f = upoly(0, 36, -20, 1)  # x(x-2)(x-18)
    iso = two_isogeny_quotient(CubicCurve(f))
    assert iso.phi_x.evaluate(Fraction(-8)) == 0


def test_two_isogeny_needs_origin_point():
    with pytest.raises(CurveError):
        two_isogeny_quotient(CubicCurve(upoly(1, 3, Fraction(9, 4), 1)))


def test_three_isogeny_construction():
    iso = three_isogeny(Fraction(3), Fraction(1))
    assert iso.target.f == upoly(1, 3, Fraction(9, 4), 1)
    assert compose(iso.target.f, iso.phi_x) == RatFunc(iso.source.f) * iso.phi_y * iso.phi_y


def test_three_isogeny_degenerate_parameters():
    with pytest.raises(CurveError):
        three_isogeny(Fraction(0), Fraction(1))
    with pytest.raises(CurveError):
        three_isogeny(Fraction(3), Fraction(0))
    # 6^3 = 216 = 54 * 2^2, so (b, c) = (6, 2) hits the excluded locus
    with pytest.raises(CurveError):
        three_isogeny(Fraction(6), Fraction(2))


def test_isogeny_identity_enforced():
    curve = CubicCurve(upoly(0, 4, -5, 1))
    iso = two_isogeny_quotient(curve)
    with pytest.raises(CurveError):
        Isogeny(iso.source, iso.target, iso.phi_x, iso.phi_y + RatFunc(ONE))


def test_on_twist_cross_multiplied_over_function_field():
    # the test over Q(u) builds no reduced quotient; it must agree with the
    # reduced d*y^2 == f(x) on every default family's points and reject a
    # moved y or x
    u = RatFunc(UniPoly([0, 1]))
    for fid in FAMILY_IDS:
        fam = build(FamilySpec.make(fid))
        d, f = RatFunc(fam.g), fam.base.f
        for pt in fam.points:
            assert on_twist(d, f, pt) and d * pt.y * pt.y == compose(f, pt.x), fid
            for moved in (CurvePoint(pt.x, pt.y + 1), CurvePoint(pt.x + u, pt.y)):
                assert not on_twist(d, f, moved) and d * moved.y * moved.y != compose(f, moved.x), fid


_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
_nonzero = _rationals.filter(bool)


@given(
    coeffs=st.lists(_rationals, min_size=4, max_size=4).filter(lambda cs: cs[3] != 0),
    x=_rationals,
    y=_nonzero,
    shift=_nonzero,
    integral=st.booleans(),
)
def test_on_twist_over_q_agrees_with_fractions(coeffs, x, y, shift, integral):
    # the integer test dn*yn^2*M == N*dd*yd^2 against d*y^2 == f(x) in
    # Fractions, on a point made to lie on the twist and on its perturbations
    f = UniPoly(coeffs)
    if integral:  # int coordinates and d, which on_twist reads as n/1
        x, y = x.numerator, y.numerator
    fx = f(x)
    d = fx / (y * y) if fx else shift
    if integral and d.denominator == 1:
        d = d.numerator
    for dd, xx, yy in ((d, x, y), (d + shift, x, y), (d, x + shift, y), (d, x, y + shift), (-d, x, y), (d, -x, -y)):
        assert on_twist(dd, f, CurvePoint(xx, yy)) == (dd * yy * yy == f(xx)), (dd, xx, yy)
    assert on_twist(d, f, CurvePoint(x, y)) == bool(fx)
