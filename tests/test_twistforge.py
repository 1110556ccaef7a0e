"""The construction engine: Moebius maps, twist identities, conic
parametrizations, and family assembly."""

from fractions import Fraction

import pytest

from conftest import same_square_class, upoly
from twistlab.curves import CubicCurve, three_isogeny, two_isogeny_quotient
from twistlab.exactmath import ONE, RatFunc, UniPoly, compose, square_class
from twistlab.twistforge import (
    ConicPoint,
    ForgeError,
    Mobius,
    TwistIdentity,
    assemble_rank2,
    assemble_rank3,
    conic_param_double,
    conic_param_single,
    conic_point_for,
    mobius_from_triples,
    twist_from_isogeny,
    twist_from_permutation,
    validate_family,
)

F = Fraction


# -- Moebius maps --------------------------------------------------------------


def test_mobius_identity_assignment():
    lam = F(-2)
    h = mobius_from_triples((0, 1, lam), (0, 1, lam))
    assert h.as_ratfunc() == RatFunc(upoly(0, 1))


def test_mobius_swap_matches_display():
    # 0 <-> 1 swap fixing lambda: (lam^2 t - lam^2)/((2 lam - 1) t - lam^2)
    lam = F(-2)
    h = mobius_from_triples((0, 1, lam), (1, 0, lam))
    expected = RatFunc(upoly(-lam * lam, lam * lam), upoly(-lam * lam, 2 * lam - 1))
    assert h.as_ratfunc() == expected


def test_mobius_for_degree12_pair():
    h = mobius_from_triples((0, 1, -1), (-1, 0, 1))
    assert h.as_ratfunc() == RatFunc(upoly(-1, 1), upoly(1, 3))  # (t-1)/(3t+1)


def test_mobius_rejects_repeats():
    with pytest.raises(ForgeError):
        mobius_from_triples((0, 0, 1), (0, 1, 2))
    with pytest.raises(ForgeError):
        Mobius(1, 2, 2, 4)  # zero determinant


def test_mobius_compose_inverse():
    h = Mobius(-2, 0, 1, 2)
    ident = h.compose(h.inverse())
    assert ident.as_ratfunc() == RatFunc(upoly(0, 1))


def test_mobius_canonical_scaling():
    h = Mobius(F(4), 0, F(2), F(8))
    assert (h.a, h.b, h.c, h.d) == (1, 0, F(1, 2), 2)


# -- twist identities ----------------------------------------------------------


def test_permutation_identity_k_values():
    # f = x(x-1)(x-lambda) at lambda = -2: the two transposition square classes
    lam = F(-2)
    f = upoly(0, lam, -(1 + lam), 1)
    tid_01 = twist_from_permutation(f, mobius_from_triples((0, 1, lam), (1, 0, lam)))
    tid_0l = twist_from_permutation(f, mobius_from_triples((0, 1, lam), (lam, 1, 0)))
    k_display_1 = upoly(1, lam - 2) * (1 - lam)  # (1-lam)((lam-2)t + 1)
    k_display_2 = upoly(-lam * lam, 2 * lam - 1) * (lam * (1 - lam))
    assert same_square_class(tid_0l.k, k_display_1)
    assert same_square_class(tid_01.k, k_display_2)
    assert tid_01.k.degree == 1 and tid_0l.k.degree == 1


def test_permutation_identity_sign_honest():
    # for y^2 = x^3 - x and the 3-cycle substitution (t-1)/(3t+1), the square
    # class is -(6t+2): the printed positive sign cannot satisfy f(h) = k f j^2
    f = upoly(0, -1, 0, 1)
    tid = twist_from_permutation(f, mobius_from_triples((0, 1, -1), (-1, 0, 1)))
    assert tid.k == upoly(-2, -6)
    ratio = compose(f, tid.h) / RatFunc(f)
    assert ratio.evaluate(F(2)) < 0 < upoly(2, 6)(F(2))


def test_identity_permutation_rejected():
    f = upoly(0, -1, 0, 1)
    with pytest.raises(ForgeError):
        twist_from_permutation(f, mobius_from_triples((0, 1, -1), (0, 1, -1)))


def test_non_permutation_rejected():
    f = upoly(0, -1, 0, 1)
    with pytest.raises(ForgeError):
        twist_from_permutation(f, Mobius(0, 1, 1, 1))  # 1/(t+1) moves the roots off the set


def test_isogeny_identity_degree3():
    b, c = F(3), F(1)
    f = upoly(c, b, b * b / (4 * c), 1)
    mu = Mobius(b ** 3 - 54 * c * c, 0, 12 * b * c, 18 * c * c)
    tid = twist_from_isogeny(f, three_isogeny(b, c), mu)
    assert same_square_class(tid.k, upoly(-3 * c * c, -2 * b * c))  # -c(2bt + 3c)
    assert tid.k.degree == 1


def test_isogeny_identity_degree2():
    a, b = F(2), F(1)
    f = upoly(0, a * a * b * b, -(b + a * a * b), 1)
    q = a * a - 3 * a + 4
    mu = Mobius(a * (a + 1) * (a - 1) ** 2 * b, -a * (a + 1) * (a - 1) ** 2 * b * b, -q, a * (a + 1) * b)
    tid = twist_from_isogeny(f, two_isogeny_quotient(CubicCurve(f)), mu)
    k_display = upoly(-a * (a + 1) * b, q) * ((a - 1) * a * b)
    assert same_square_class(tid.k, k_display)


def test_isogeny_route_rejects_linear_mu():
    a, b = F(2), F(1)
    f = upoly(0, a * a * b * b, -(b + a * a * b), 1)
    iso = two_isogeny_quotient(CubicCurve(f))
    with pytest.raises(ForgeError):
        twist_from_isogeny(f, iso, Mobius(1, 0, 0, 1))


def test_isogeny_route_rejects_wrong_cubic():
    f_other = upoly(0, -1, 0, 1)
    iso = two_isogeny_quotient(CubicCurve(upoly(0, 4, -5, 1)))
    mu = Mobius(1, 0, 1, 1)
    with pytest.raises(ForgeError):
        twist_from_isogeny(f_other, iso, mu)


def test_twist_identity_verified_on_construction():
    f = upoly(0, -1, 0, 1)
    tid = twist_from_permutation(f, mobius_from_triples((0, 1, -1), (-1, 0, 1)))
    with pytest.raises(ForgeError):
        TwistIdentity(f, tid.h, tid.k + ONE, tid.j)
    with pytest.raises(ForgeError):
        TwistIdentity(f, tid.h, tid.k * upoly(0, 0, 1), tid.j)  # not squarefree rescale


# -- conic parametrizations ------------------------------------------------------


def test_conic_single_linear():
    # k = -b(at + b) at (a, b) = (1, 2): t(u) = -(u^2 + 4)/2
    par = conic_param_single(upoly(-4, -2))
    assert par == RatFunc(upoly(-2, 0, F(-1, 2)))
    par2 = conic_param_single(upoly(-3, -6))  # -c(2bt + 3c) at (b, c) = (3, 1)
    assert par2 == RatFunc(upoly(F(-1, 2), 0, F(-1, 6)))
    par3 = conic_param_single(upoly(0, 1))
    assert par3 == RatFunc(upoly(0, 0, 1))


def test_conic_single_quadratic_with_point():
    # only a linear k is parametrized: t^2 + 1 is refused though (0, 1) lies on it
    with pytest.raises(ForgeError):
        conic_param_single(upoly(1, 0, 1))
    with pytest.raises(ForgeError):
        conic_param_single(upoly(0, 0, 0, 1))  # cubic k out of range
    with pytest.raises(ForgeError):
        conic_param_single(upoly(4))  # constant k


def test_conic_double_degree12_family():
    k1, k2 = upoly(-2, -6), upoly(2, -6)
    pt = conic_point_for(k1, k2, F(-1, 3))
    assert (pt.t0, pt.r0, pt.s0) == (F(-1, 3), 0, 2)
    par = conic_param_double(k1, k2, pt)
    expected = RatFunc(upoly(-1, 0, -6, 0, -1), upoly(1, 0, -2, 0, 1) * 3)
    assert par == expected
    for k in (k1, k2):
        kk, _ = square_class(compose(k, par))
        assert kk == ONE


def test_conic_double_lambda_family_matches_display():
    lam, a = F(-2), F(1)
    k1 = upoly(1, lam - 2) * (1 - lam)
    k2 = upoly(-lam * lam, 2 * lam - 1) * (lam * (1 - lam))
    t0, rs = (lam + 1) / 2, a * (lam - 1)
    par = conic_param_double(k2, k1, ConicPoint(t0, rs, rs))
    d_poly = upoly(2 - lam, 0, lam * (2 * lam - 1))
    n_poly = upoly(
        (lam - 2) ** 2 * (lam + 1),
        -4 * lam * (lam - 1) * (lam - 2),
        2 * lam * (lam + 1) * (2 * lam ** 2 - 3 * lam + 2),
        -4 * lam * lam * (lam - 1) * (2 * lam - 1),
        lam * lam * (lam + 1) * (2 * lam - 1) ** 2,
    )
    assert par == RatFunc(n_poly, d_poly * d_poly * 2)


def test_conic_double_rejections():
    k1 = upoly(-2, -6)
    with pytest.raises(ForgeError):
        conic_param_double(k1, k1 * 2, ConicPoint(F(-1, 3), 0, 0))  # dependent
    with pytest.raises(ForgeError):
        conic_param_double(k1, upoly(2, -6), ConicPoint(F(-1, 3), 1, 2))  # bad point
    with pytest.raises(ForgeError):
        conic_param_double(upoly(1, 0, 1), upoly(2, -6), ConicPoint(0, 1, 1))  # nonlinear


def test_conic_point_for_requires_squares():
    with pytest.raises(ForgeError):
        conic_point_for(upoly(-2, -6), upoly(2, -6), F(0))  # k1(0) = -2 is not a square


# -- family assembly --------------------------------------------------------------


def test_assemble_rank2_reproduces_display_class():
    a, b = F(1), F(2)
    f = upoly(0, b, a, 1)
    tid = twist_from_permutation(f, Mobius(-b, 0, a, b))
    par = conic_param_single(upoly(-b * b, -a * b))
    fam = assemble_rank2(f, tid, par)
    display = upoly(b * b, 0, 1) * upoly(b ** 4, 0, 2 * b * b - a * a * b, 0, 1) * (-a * b)
    assert fam.g == display
    assert fam.claimed_rank == 2 and len(fam.points) == 2
    assert validate_family(fam) == []


def test_assemble_rank3_reproduces_display():
    f = upoly(0, -1, 0, 1)
    tid1 = twist_from_permutation(f, mobius_from_triples((0, 1, -1), (-1, 0, 1)))
    tid2 = twist_from_permutation(f, mobius_from_triples((0, 1, -1), (-1, 1, 0)))
    pt = conic_point_for(tid1.k, tid2.k, F(-1, 3))
    par = conic_param_double(tid1.k, tid2.k, pt)
    fam = assemble_rank3(f, tid1, tid2, par)
    assert fam.g == upoly(1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1) * 6
    xs = {p.x for p in fam.points}
    assert RatFunc(upoly(1, 0, 0, 0, 1), upoly(0, 0, 6)) in xs
    assert validate_family(fam) == []
    curve = fam.curve()
    assert all(curve.contains(p) for p in fam.points)
    assert all(p.has_nonconstant_x() for p in fam.points)


def test_assemble_rejects_foreign_identity():
    f = upoly(0, -1, 0, 1)
    other = upoly(0, 2, 1, 1)
    tid = twist_from_permutation(other, Mobius(-2, 0, 1, 2))
    par = conic_param_single(upoly(-4, -2))
    with pytest.raises(ForgeError):
        assemble_rank2(f, tid, par)


def test_genus_accounting():
    f = upoly(0, -1, 0, 1)
    tid1 = twist_from_permutation(f, mobius_from_triples((0, 1, -1), (-1, 0, 1)))
    tid2 = twist_from_permutation(f, mobius_from_triples((0, 1, -1), (-1, 1, 0)))
    pt = conic_point_for(tid1.k, tid2.k, F(-1, 3))
    par = conic_param_double(tid1.k, tid2.k, pt)
    fam = assemble_rank3(f, tid1, tid2, par)
    assert fam.genus_upper() == (fam.g.degree - 1) // 2 == 5
    assert fam.claimed_rank <= fam.genus_upper()
