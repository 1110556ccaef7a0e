"""The construction engine: Moebius maps, twist identities, conic
parametrizations, and family assembly."""

from fractions import Fraction

import pytest

from conftest import same_square_class, upoly
from twistlab import exactmath, twistforge
from twistlab.catalog import FAMILY_IDS, FamilySpec, build, twist_identities
from twistlab.curves import CubicCurve, CurvePoint, three_isogeny, two_isogeny_quotient
from twistlab.exactmath import ONE, RatFunc, UniPoly, compose, square_class
from twistlab.twistforge import (
    ConicPoint,
    ForgeError,
    TwistFamily,
    TwistIdentity,
    assemble_rank2,
    assemble_rank3,
    conic_param_double,
    conic_param_single,
    conic_point_for,
    genus_upper_bound,
    mobius,
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
    assert h == RatFunc(upoly(0, 1))


def test_mobius_swap_matches_display():
    # 0 <-> 1 swap fixing lambda: (lam^2 t - lam^2)/((2 lam - 1) t - lam^2)
    lam = F(-2)
    h = mobius_from_triples((0, 1, lam), (1, 0, lam))
    expected = RatFunc(upoly(-lam * lam, lam * lam), upoly(-lam * lam, 2 * lam - 1))
    assert h == expected


def test_mobius_for_degree12_pair():
    h = mobius_from_triples((0, 1, -1), (-1, 0, 1))
    assert h == RatFunc(upoly(-1, 1), upoly(1, 3))  # (t-1)/(3t+1)


def test_mobius_rejects_repeats():
    with pytest.raises(ForgeError):
        mobius_from_triples((0, 0, 1), (0, 1, 2))
    with pytest.raises(ForgeError):
        mobius(1, 2, 2, 4)  # zero determinant


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
        twist_from_permutation(f, mobius(0, 1, 1, 1))  # 1/(t+1) moves the roots off the set


def test_linear_k_from_a_non_permutation_rejected():
    # (t + 1)/(2t) sends the roots 0, 1, -1 of t^3 - t to infinity, 1, 0: its
    # k = -6t - 2 is linear, but k is not the denominator t up to a constant
    f = upoly(0, -1, 0, 1)
    h = RatFunc(upoly(1, 1), upoly(0, 2))
    assert TwistIdentity(f, h).k == upoly(-2, -6)
    with pytest.raises(ForgeError, match="does not carry the roots"):
        twist_from_permutation(f, h)


def test_default_identities_compose_f_with_h_once(monkeypatch):
    calls = []
    ratfunc_compose = RatFunc.compose

    def counting(self, inner):
        calls.append(self)
        return ratfunc_compose(self, inner)

    monkeypatch.setattr(RatFunc, "compose", counting)
    tids = [tid for fid in FAMILY_IDS for tid in twist_identities(FamilySpec.make(fid))]
    assert len(tids) == 12 and len(calls) == 25


def test_isogeny_identity_degree3():
    b, c = F(3), F(1)
    f = upoly(c, b, b * b / (4 * c), 1)
    mu = mobius(b ** 3 - 54 * c * c, 0, 12 * b * c, 18 * c * c)
    tid = twist_from_isogeny(f, three_isogeny(b, c), mu)
    assert same_square_class(tid.k, upoly(-3 * c * c, -2 * b * c))  # -c(2bt + 3c)
    assert tid.k.degree == 1


def test_isogeny_identity_degree2():
    a, b = F(2), F(1)
    f = upoly(0, a * a * b * b, -(b + a * a * b), 1)
    q = a * a - 3 * a + 4
    mu = mobius(a * (a + 1) * (a - 1) ** 2 * b, -a * (a + 1) * (a - 1) ** 2 * b * b, -q, a * (a + 1) * b)
    tid = twist_from_isogeny(f, two_isogeny_quotient(CubicCurve(f)), mu)
    k_display = upoly(-a * (a + 1) * b, q) * ((a - 1) * a * b)
    assert same_square_class(tid.k, k_display)


def test_isogeny_route_rejects_linear_mu():
    a, b = F(2), F(1)
    f = upoly(0, a * a * b * b, -(b + a * a * b), 1)
    iso = two_isogeny_quotient(CubicCurve(f))
    with pytest.raises(ForgeError):
        twist_from_isogeny(f, iso, mobius(1, 0, 0, 1))


def test_degree_two_map_rejected():
    h = RatFunc(upoly(0, 0, 1), upoly(1, 1))  # t^2/(t+1)
    with pytest.raises(ForgeError):
        twist_from_permutation(upoly(0, -1, 0, 1), h)
    a, b = F(2), F(1)
    f = upoly(0, a * a * b * b, -(b + a * a * b), 1)
    with pytest.raises(ForgeError):
        twist_from_isogeny(f, two_isogeny_quotient(CubicCurve(f)), h)


def test_isogeny_route_rejects_wrong_cubic():
    f_other = upoly(0, -1, 0, 1)
    iso = two_isogeny_quotient(CubicCurve(upoly(0, 4, -5, 1)))
    mu = mobius(1, 0, 1, 1)
    with pytest.raises(ForgeError):
        twist_from_isogeny(f_other, iso, mu)


def test_twist_identity_derives_k_and_j():
    # both routes end in TwistIdentity(f, h), which alone derives k and j
    f = upoly(0, -1, 0, 1)
    tid = twist_from_permutation(f, mobius_from_triples((0, 1, -1), (-1, 0, 1)))
    assert TwistIdentity(f, tid.h) == tid
    b, c = F(3), F(1)
    f3 = upoly(c, b, b * b / (4 * c), 1)
    mu = mobius(b ** 3 - 54 * c * c, 0, 12 * b * c, 18 * c * c)
    tid3 = twist_from_isogeny(f3, three_isogeny(b, c), mu)
    assert TwistIdentity(f3, tid3.h) == tid3


def test_twist_identity_rejects_nonlinear_k():
    # h = t^2 gives f(h)/f = t(t^2 + 1) for f = t^3 - t, a cubic square class
    with pytest.raises(ForgeError, match="linear"):
        TwistIdentity(upoly(0, -1, 0, 1), RatFunc(upoly(0, 0, 1)))


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


def test_conics_do_not_recheck_squares(monkeypatch):
    # the chord algebra gives the squares; the assembly's ratfunc_sqrt proves them
    calls = []

    def counting(r):
        calls.append(r)
        return square_class(r)

    monkeypatch.setattr(twistforge, "square_class", counting)
    monkeypatch.setattr(exactmath, "square_class", counting)
    conic_param_single(upoly(-4, -2))
    k1, k2 = upoly(-2, -6), upoly(2, -6)
    conic_param_double(k1, k2, conic_point_for(k1, k2, F(-1, 3)))
    assert calls == []


def test_conic_point_for_requires_squares():
    with pytest.raises(ForgeError):
        conic_point_for(upoly(-2, -6), upoly(2, -6), F(0))  # k1(0) = -2 is not a square


# -- family assembly --------------------------------------------------------------


def test_assemble_rank2_reproduces_display_class():
    a, b = F(1), F(2)
    f = upoly(0, b, a, 1)
    tid = twist_from_permutation(f, mobius(-b, 0, a, b))
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
    tid = twist_from_permutation(other, mobius(-2, 0, 1, 2))
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
    assert genus_upper_bound(fam.g) == (fam.g.degree - 1) // 2 == 5
    assert fam.claimed_rank <= genus_upper_bound(fam.g)


def test_validate_family_reports_g_and_rank_failures():
    fam = build(FamilySpec.make("cor3_2"))
    # g*(u + 1)^2 with each y divided by u + 1 keeps every point on its twist
    s = RatFunc(upoly(1, 1))
    pts = tuple(CurvePoint(p.x, p.y / s) for p in fam.points)
    prov = dict(fam.provenance, degree=8)
    base, rank, points = fam.base, fam.claimed_rank, fam.points
    assert validate_family(TwistFamily(base, fam.g * s.num ** 2, pts, rank, prov)) == ["g-squarefree"]
    assert validate_family(TwistFamily(base, fam.g, points + points[:1], 3, fam.provenance)) == [
        "claimed-rank-genus-bound"
    ]
    assert "g-nonconstant" in validate_family(TwistFamily(base, upoly(6), points, rank, fam.provenance))
