"""Constructive engine for rank-2 and rank-3 quadratic twist families over Q(u).

The pipeline: a Moebius map permuting the roots of the curve cubic f (or an
isogeny precomposed with such a map) yields an identity f(h(t)) = k*f*j^2 with
k squarefree linear.  A conic parametrization then rewrites t as a rational
function of u making each k(t(u)) a perfect square, and the twist family by
the square class g of f(t(u)) carries one nonconstant point per identity plus
the tautological point at x = t(u).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .curves import CubicCurve, CurvePoint, Isogeny, TwistedCurve
from .exactmath import (
    CheckError,
    ExactMathError,
    RatFunc,
    Record,
    UniPoly,
    compose,
    ratfunc_sqrt,
    rational_sqrt,
    square_class,
)


class ForgeError(CheckError, ValueError):
    """A construction hypothesis failed (degenerate map, bad conic data...)."""


# ---------------------------------------------------------------------------
# Moebius transformations: degree-1 rational functions
# ---------------------------------------------------------------------------


def mobius(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> RatFunc:
    """t -> (a*t + b)/(c*t + d), which needs a nonzero determinant."""
    if a * d - b * c == 0:
        raise ForgeError("Moebius map needs nonzero determinant")
    return RatFunc(UniPoly([b, a]), UniPoly([d, c]))


def mobius_from_triples(src: Sequence[Fraction], dst: Sequence[Fraction]) -> RatFunc:
    """The unique Moebius map with src[i] -> dst[i] for three distinct points each."""
    src = [Fraction(v) for v in src]
    dst = [Fraction(v) for v in dst]
    if len(src) != 3 or len(dst) != 3 or len(set(src)) != 3 or len(set(dst)) != 3:
        raise ForgeError("mobius_from_triples needs two triples of distinct values")
    x1, x2, x3 = src
    y1, y2, y3 = dst
    # src -> (0, 1, infinity), then the inverse of dst -> (0, 1, infinity)
    to_std = mobius(x2 - x3, -x1 * (x2 - x3), x2 - x1, -x3 * (x2 - x1))
    from_std = mobius(-y3 * (y2 - y1), y1 * (y2 - y3), y1 - y2, y2 - y3)
    h = from_std.compose(to_std)
    if any(h.evaluate(s) != t for s, t in zip(src, dst)):
        raise ExactMathError("Moebius interpolation failed verification")
    return h


# ---------------------------------------------------------------------------
# Twist identities  f(h(t)) = k(t) * f(t) * j(t)^2
# ---------------------------------------------------------------------------


class TwistIdentity(Record):
    """The identity compose(f, h) == k * f * j^2, with k squarefree linear.

    k and j are derived here by `square_class`, whose re-expansion check
    proves k * j^2 == f(h)/f; no caller supplies them.
    """

    __slots__ = ("f", "h", "k", "j")

    def __init__(self, f: UniPoly, h: RatFunc):
        k, j = square_class(compose(f, h) / RatFunc(f))
        if k.degree != 1:
            raise ForgeError("twist identity f(h) = k*f*j^2 needs a linear square-class factor k")
        super().__init__(f, h, k, j)


def _transported(f: UniPoly, mu: RatFunc, h: RatFunc, what: str) -> TwistIdentity:
    """The identity for h, once the Moebius map mu = (a*t + b)/(c*t + d), with
    c != 0, is shown to carry the roots of f onto the roots of `what`.

    Writing the target cubic at mu as G(t)/(c*t + d)^3, f(h)/f has the square
    class of G*(c*t + d)*f, which is (c*t + d) up to a constant exactly when
    G is a constant times f.  If mu(infinity) is a root, G has degree 2 and k
    has even degree, which TwistIdentity rejects.
    """
    if mu.den.degree != 1 or mu.num.degree > 1:
        raise ForgeError("root transport needs a Moebius map (a*t + b)/(c*t + d) with c != 0")
    tid = TwistIdentity(f, h)
    if tid.k.monic() != mu.den:
        raise ForgeError(f"Moebius map does not carry the roots of f to the roots of {what}")
    return tid


def twist_from_permutation(f: UniPoly, h: RatFunc) -> TwistIdentity:
    """Twist identity from a Moebius map permuting the root set of f.

    Raises if h is a polynomial (the factorization degenerates there) or
    if h does not actually permute the roots.
    """
    return _transported(f, h, h, "f")


def twist_from_isogeny(f: UniPoly, iso: Isogeny, mu: RatFunc) -> TwistIdentity:
    """Twist identity from h = phi_x(mu(t)), with the Moebius map mu carrying
    the roots of f to the roots of the isogeny's source cubic.

    The isogeny's identity f(phi_x) = f_source * phi_y^2 gives f(h) the
    square class of f_source(mu), so mu is checked as for a permutation.
    """
    if f != iso.target.f:
        raise ForgeError("isogeny target cubic must equal f")
    return _transported(f, mu, iso.phi_x.compose(mu), "the isogeny source cubic")


# ---------------------------------------------------------------------------
# Conic parametrizations
# ---------------------------------------------------------------------------


class ConicPoint(Record):
    """Rational point on the curve r^2 = k1(t), s^2 = k2(t)."""

    __slots__ = ("t0", "r0", "s0")


def conic_point_for(k1: UniPoly, k2: UniPoly, t0: Fraction) -> ConicPoint:
    """Build a ConicPoint at t0, taking exact square roots of k1(t0), k2(t0)."""
    t0 = Fraction(t0)
    r0 = rational_sqrt(k1(t0))
    s0 = rational_sqrt(k2(t0))
    if r0 is None or s0 is None:
        raise ForgeError("k1(t0), k2(t0) must be rational squares")
    return ConicPoint(t0, r0, s0)


def conic_param_single(k: UniPoly) -> RatFunc:
    """The t(u) making k(t(u)) = u^2 for linear k.

    k(t(u)) = u^2 holds identically, so nothing is re-checked here: the
    assembly's `ratfunc_sqrt` proves the square it uses, and
    `checked_family` proves every point.
    """
    if k.degree != 1:
        raise ForgeError("conic_param_single needs a linear factor")
    m, c = k.coeff(1), k.coeff(0)
    return RatFunc(UniPoly([-c / m, 0, 1 / m]))


def conic_param_double(k1: UniPoly, k2: UniPoly, pt: ConicPoint) -> RatFunc:
    """Parametrize the genus-zero curve r^2 = k1(t), s^2 = k2(t) for independent
    linear k1, k2, using chords of slope u through the supplied rational point.

    Eliminating t via k1 turns the pair into the conic s^2 = alpha*r^2 + beta;
    the returned t(u) has degree at most 4 and makes both k_i(t(u)) squares:
    k1(t(u)) = r(u)^2 and k2(t(u)) = (s0 + u*w)^2 for the chord r = r0 + w.
    These hold identically once the checks below pass, so they are not
    re-checked here: the assembly's `ratfunc_sqrt` proves the squares it
    uses, and `checked_family` proves every point.
    """
    if k1.degree != 1 or k2.degree != 1:
        raise ForgeError("conic_param_double needs two linear factors")
    m1, c1 = k1.coeff(1), k1.coeff(0)
    m2, c2 = k2.coeff(1), k2.coeff(0)
    if m1 * c2 - m2 * c1 == 0:
        raise ForgeError("k1, k2 must be Q-linearly independent")
    if pt.r0 * pt.r0 != k1(pt.t0) or pt.s0 * pt.s0 != k2(pt.t0):
        raise ForgeError("conic point does not satisfy r0^2 = k1(t0), s0^2 = k2(t0)")
    alpha = m2 / m1
    beta = c2 - m2 * c1 / m1
    # line of slope u through (r0, s0) on s^2 = alpha*r^2 + beta
    w = RatFunc(UniPoly([2 * alpha * pt.r0, -2 * pt.s0]), UniPoly([-alpha, 0, 1]))
    r_of_u = pt.r0 + w
    t_of_u = (r_of_u * r_of_u - c1) / m1
    if t_of_u.is_constant():
        raise ForgeError("degenerate conic parametrization (constant t(u))")
    return t_of_u


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


class TwistFamily(Record):
    """A squarefree g in Q[u], a base curve over Q, and points on the twist by g."""

    __slots__ = ("base", "g", "points", "claimed_rank", "provenance")

    def curve(self) -> TwistedCurve:
        return TwistedCurve(self.base, RatFunc(self.g))


def genus_upper_bound(g: UniPoly) -> int:
    """Genus of s^2 = g(u) for squarefree g, which bounds the twist rank."""
    return (g.degree - 1) // 2


def validate_family(fam: TwistFamily) -> list[str]:
    """Return the names of every failed structural check (empty means valid)."""
    failures = []
    if fam.g.is_constant():
        failures.append("g-nonconstant")
    if not fam.g.is_squarefree():
        failures.append("g-squarefree")
    expect_deg = fam.provenance.get("degree")
    if expect_deg is not None and fam.g.degree != expect_deg:
        failures.append("g-degree")
    curve = fam.curve()
    for i, pt in enumerate(fam.points, start=1):
        if not curve.contains(pt):
            failures.append(f"on-curve[{i}]")
        if not pt.has_nonconstant_x():
            failures.append(f"nonconstant-x[{i}]")
    if fam.claimed_rank > len(fam.points):
        failures.append("claimed-rank-witnessed")
    if fam.claimed_rank > genus_upper_bound(fam.g):
        failures.append("claimed-rank-genus-bound")
    return failures


def checked_family(fam: TwistFamily) -> TwistFamily:
    failures = validate_family(fam)
    if failures:
        raise ForgeError(f"twist family failed checks: {', '.join(failures)}")
    return fam


def _family_from_identities(
    f: UniPoly,
    tids: Sequence[TwistIdentity],
    t_of_u: RatFunc,
    claimed_rank: int,
    provenance: dict,
) -> TwistFamily:
    big_f = compose(f, t_of_u)
    if big_f.is_zero():
        raise ForgeError("t(u) lands on a root of f")
    g, jg = square_class(big_f)
    if g.is_constant():
        raise ForgeError("degenerate family: f(t(u)) is a square times a constant")
    # deterministic sign: positive leading numerator coefficient on y
    points = [CurvePoint(t_of_u, jg.sign_normalized())]
    for tid in tids:
        if tid.f != f:
            raise ForgeError("twist identity belongs to a different cubic")
        x = tid.h.compose(t_of_u)
        s_k = ratfunc_sqrt(compose(tid.k, t_of_u))
        y = s_k * jg * tid.j.compose(t_of_u)
        points.append(CurvePoint(x, y.sign_normalized()))
    fam = TwistFamily(
        base=CubicCurve(f),
        g=g,
        points=tuple(points),
        claimed_rank=claimed_rank,
        provenance=provenance,
    )
    return checked_family(fam)


def assemble_rank2(
    f: UniPoly, tid: TwistIdentity, t_of_u: RatFunc, provenance: dict | None = None
) -> TwistFamily:
    """Rank >= 2 family: points at x = t(u) and x = h(t(u))."""
    return _family_from_identities(f, [tid], t_of_u, 2, dict(provenance or {}))


def assemble_rank3(
    f: UniPoly,
    tid1: TwistIdentity,
    tid2: TwistIdentity,
    t_of_u: RatFunc,
    provenance: dict | None = None,
) -> TwistFamily:
    """Rank >= 3 family: points at x = t(u), h1(t(u)), h2(t(u))."""
    return _family_from_identities(f, [tid1, tid2], t_of_u, 3, dict(provenance or {}))
