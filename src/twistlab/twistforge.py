"""Constructive engine for rank-2 and rank-3 quadratic twist families over Q(u).

The pipeline: a Moebius map permuting the roots of the curve cubic f (or an
isogeny precomposed with such a map) yields an identity f(h(t)) = k*f*j^2 with
k squarefree linear.  A conic parametrization then rewrites t as a rational
function of u making each k(t(u)) a perfect square, and the twist family by
the square class g of f(t(u)) carries one nonconstant point per identity plus
the tautological point at x = t(u).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .curves import CubicCurve, CurvePoint, Isogeny, TwistedCurve
from .exactmath import (
    ONE,
    ExactMathError,
    RatFunc,
    UniPoly,
    compose,
    ratfunc_sqrt,
    rational_sqrt,
    square_class,
)


class ForgeError(ValueError):
    """A construction hypothesis failed (degenerate map, bad conic data...)."""


# ---------------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mobius:
    """t -> (a*t + b)/(c*t + d) with nonzero determinant.

    Stored in canonical scaling: the first nonzero entry of (a, b, c, d) is 1.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        a, b, c, d = (Fraction(v) for v in (self.a, self.b, self.c, self.d))
        if a * d - b * c == 0:
            raise ForgeError("Moebius map needs nonzero determinant")
        for v in (a, b, c, d):
            if v != 0:
                a, b, c, d = a / v, b / v, c / v, d / v
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def is_linear_poly(self) -> bool:
        """True when the map is a polynomial a*t + b (no pole), the degenerate case."""
        return self.c == 0

    def as_ratfunc(self) -> RatFunc:
        return RatFunc(UniPoly([self.b, self.a]), UniPoly([self.d, self.c]))

    def apply(self, x: Fraction) -> Fraction | None:
        """Image of a rational point; None encodes infinity."""
        num = self.a * x + self.b
        den = self.c * x + self.d
        if den == 0:
            return None
        return num / den

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other: (self . other)(t) = self(other(t))."""
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


def _three_point_map(x1: Fraction, x2: Fraction, x3: Fraction) -> Mobius:
    # the unique map sending (x1, x2, x3) to (0, 1, infinity)
    return Mobius(x2 - x3, -x1 * (x2 - x3), x2 - x1, -x3 * (x2 - x1))


def mobius_from_triples(src: Sequence[Fraction], dst: Sequence[Fraction]) -> Mobius:
    """The unique Moebius map with src[i] -> dst[i] for three distinct points each."""
    src = [Fraction(v) for v in src]
    dst = [Fraction(v) for v in dst]
    if len(src) != 3 or len(dst) != 3 or len(set(src)) != 3 or len(set(dst)) != 3:
        raise ForgeError("mobius_from_triples needs two triples of distinct values")
    h = _three_point_map(*dst).inverse().compose(_three_point_map(*src))
    for s, t in zip(src, dst):
        if h.apply(s) != t:
            raise ExactMathError("Moebius interpolation failed verification")
    return h


# ---------------------------------------------------------------------------
# Twist identities  f(h(t)) = k(t) * f(t) * j(t)^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistIdentity:
    """Certified identity compose(f, h) == k * f * j^2 with k squarefree."""

    f: UniPoly
    h: RatFunc
    k: UniPoly
    j: RatFunc

    def __post_init__(self):
        if not self.k.is_squarefree():
            raise ForgeError("twist identity factor k must be squarefree")
        if compose(self.f, self.h) != RatFunc(self.k * self.f) * self.j * self.j:
            raise ForgeError("twist identity f(h) = k*f*j^2 failed symbolic verification")


def _check_root_transport(f: UniPoly, target: UniPoly, m: Mobius, what: str):
    """Verify that m carries the root set of f onto the root set of target.

    Operationally: target(m(t)) must reduce to const * f(t) / (t + delta)^3,
    i.e. the reduced numerator of target(m(t)) is a constant multiple of f.
    """
    composed = compose(target, m.as_ratfunc())
    num = composed.num
    if num.degree != 3 or num.monic() != f.monic():
        raise ForgeError(f"Moebius map does not carry the roots of f to the roots of {what}")


def twist_from_permutation(f: UniPoly, h: Mobius) -> TwistIdentity:
    """Twist identity from a Moebius map permuting the root set of f.

    Raises if h is a linear polynomial (the factorization degenerates there)
    or if h does not actually permute the roots.
    """
    if h.is_linear_poly:
        raise ForgeError("root permutation realized by a linear polynomial is excluded")
    _check_root_transport(f, f, h, "f")
    hr = h.as_ratfunc()
    k, j = square_class(compose(f, hr) / RatFunc(f))
    if k.degree != 1:
        raise ForgeError("expected a linear square-class factor from a root permutation")
    return TwistIdentity(f, hr, k, j)


def twist_from_isogeny(f: UniPoly, iso: Isogeny, mu: Mobius) -> TwistIdentity:
    """Twist identity from h = phi_x(mu(t)), with mu carrying roots of f to the
    roots of the isogeny's source cubic."""
    if f != iso.target.f:
        raise ForgeError("isogeny target cubic must equal f")
    if mu.is_linear_poly:
        raise ForgeError("root transport by a linear polynomial is excluded")
    _check_root_transport(f, iso.source.f, mu, "the isogeny source cubic")
    h = iso.phi_x.compose(mu.as_ratfunc())
    k, j = square_class(compose(f, h) / RatFunc(f))
    if k.degree != 1:
        raise ForgeError("expected a linear square-class factor from the isogeny route")
    return TwistIdentity(f, h, k, j)


# ---------------------------------------------------------------------------
# Conic parametrizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConicPoint:
    """Rational point on the curve r^2 = k1(t), s^2 = k2(t)."""

    t0: Fraction
    r0: Fraction
    s0: Fraction


def conic_point_for(k1: UniPoly, k2: UniPoly, t0: Fraction) -> ConicPoint:
    """Build a ConicPoint at t0, taking exact square roots of k1(t0), k2(t0)."""
    t0 = Fraction(t0)
    r0 = rational_sqrt(k1(t0))
    s0 = rational_sqrt(k2(t0))
    if r0 is None or s0 is None:
        raise ForgeError("k1(t0), k2(t0) must be rational squares")
    return ConicPoint(t0, r0, s0)


def _require_square_after(k: UniPoly, t_of_u: RatFunc):
    kk, _ = square_class(compose(k, t_of_u))
    if kk != ONE:
        raise ExactMathError("substitution failed to make k(t(u)) a perfect square")


def conic_param_single(k: UniPoly) -> RatFunc:
    """The t(u) making k(t(u)) = u^2 for linear k."""
    if k.degree != 1:
        raise ForgeError("conic_param_single needs a linear factor")
    m, c = k.coeff(1), k.coeff(0)
    t_of_u = RatFunc(UniPoly([-c / m, 0, 1 / m]))
    _require_square_after(k, t_of_u)
    return t_of_u


def conic_param_double(k1: UniPoly, k2: UniPoly, pt: ConicPoint) -> RatFunc:
    """Parametrize the genus-zero curve r^2 = k1(t), s^2 = k2(t) for independent
    linear k1, k2, using chords of slope u through the supplied rational point.

    Eliminating t via k1 turns the pair into the conic s^2 = alpha*r^2 + beta;
    the returned t(u) has degree at most 4 and makes both k_i(t(u)) squares.
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
    _require_square_after(k1, t_of_u)
    _require_square_after(k2, t_of_u)
    return t_of_u


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistFamily:
    """A squarefree g in Q[u], a base curve over Q, and points on the twist by g."""

    base: CubicCurve
    g: UniPoly
    points: tuple[CurvePoint, ...]
    claimed_rank: int
    provenance: dict

    def curve(self) -> TwistedCurve:
        return TwistedCurve(self.base, RatFunc(self.g))

    def genus_upper(self) -> int:
        return genus_upper_bound(self.g)


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
    if fam.claimed_rank > fam.genus_upper():
        failures.append("claimed-rank-genus-bound")
    return failures


def checked_family(fam: TwistFamily) -> TwistFamily:
    failures = validate_family(fam)
    if failures:
        raise ForgeError(f"twist family failed checks: {', '.join(failures)}")
    return fam


def _normalized_point(x: RatFunc, y: RatFunc) -> CurvePoint:
    # deterministic sign: positive leading numerator coefficient on y
    return CurvePoint(x, y.sign_normalized())


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
    points = [_normalized_point(t_of_u, jg)]
    for tid in tids:
        if tid.f != f:
            raise ForgeError("twist identity belongs to a different cubic")
        x = tid.h.compose(t_of_u)
        s_k = ratfunc_sqrt(compose(tid.k, t_of_u))
        y = s_k * jg * tid.j.compose(t_of_u)
        points.append(_normalized_point(x, y))
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
