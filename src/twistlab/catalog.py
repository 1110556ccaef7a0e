"""The named twist families: one recipe each, with hard-coded display data
cross-validated against the construction pipeline.

`RECIPES` holds one `Recipe` per family id: default parameters and their
constraints, the twist identities and conic that re-derive the family from
first principles, and the builder for the displayed g and points.
`build` returns the display-backed family; `build_pipeline` re-runs the
construction; `twist_identities` returns the identities it starts from;
`crosscheck` compares the two routes up to rational-function squares and
the sign of each point.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import prod

from .curves import CubicCurve, CurvePoint, three_isogeny, two_isogeny_quotient
from .exactmath import (
    ONE,
    RatFunc,
    Record,
    UniPoly,
    compose,
    rat_to_str,
    ratfunc_sqrt,
    square_class,
)
from .jsonio import poly_to_json
from .twistforge import (
    ConicPoint,
    ForgeError,
    TwistFamily,
    TwistIdentity,
    assemble_rank2,
    assemble_rank3,
    checked_family,
    conic_param_double,
    conic_param_single,
    conic_point_for,
    mobius,
    mobius_from_triples,
    twist_from_isogeny,
    twist_from_permutation,
)


class ConstraintError(ValueError):
    """A family hypothesis on the parameters is violated."""


class FamilySpec(Record):
    """A family id plus a full parameter assignment satisfying its constraints."""

    __slots__ = ("id", "params")

    def __init__(self, id: str, params: dict[str, Fraction]):
        for violated, requirement in RECIPES[id].constraints:
            if violated(params):
                raise ConstraintError(f"{id} requires {requirement}")
        self.id = id
        self.params = params

    @staticmethod
    def make(family_id: str, params: dict | None = None) -> "FamilySpec":
        if family_id not in RECIPES:
            raise ConstraintError(f"unknown family id {family_id!r}")
        merged = dict(RECIPES[family_id].defaults)
        for key, value in (params or {}).items():
            if key not in merged:
                raise ConstraintError(f"family {family_id} takes no parameter {key!r}")
            merged[key] = Fraction(value)
        return FamilySpec(family_id, merged)


# ---------------------------------------------------------------------------
# Base cubics and shared construction data
# ---------------------------------------------------------------------------

_F_CONGRUENT = UniPoly([0, -1, 0, 1])  # x^3 - x


def _f_two_torsion(a: Fraction, b: Fraction) -> UniPoly:
    # x^3 + a x^2 + b x, rational 2-torsion at the origin
    return UniPoly([0, b, a, 1])


def _f_lambda(lam: Fraction) -> UniPoly:
    # x (x - 1) (x - lambda)
    return UniPoly([0, lam, -(1 + lam), 1])


def _f_three_subgroup(b: Fraction, c: Fraction) -> UniPoly:
    # x^3 + (b^2/4c) x^2 + b x + c, rational order-3 subgroup above x = 0
    return UniPoly([c, b, b * b / (4 * c), 1])


def _lambda_2a(p: dict) -> Fraction:
    return (1 - p["a"] ** 2) / (p["a"] ** 2 + 2)


def _lambda_2b(p: dict) -> Fraction:
    return p["a"] * (p["a"] - 2) / (p["a"] ** 2 + 1)


def _k_linear_0l(lam: Fraction) -> UniPoly:
    # square class of f(h)/f for the 0 <-> lambda root swap
    return UniPoly([1, lam - 2]) * (1 - lam)


def _k_linear_01(lam: Fraction) -> UniPoly:
    # ... for the 0 <-> 1 root swap
    return UniPoly([-lam * lam, 2 * lam - 1]) * (lam * (1 - lam))


def _k_linear_cycle(lam: Fraction) -> UniPoly:
    # ... for the 3-cycle 0 -> lambda -> 1 -> 0
    return UniPoly([-lam, lam * lam - lam + 1]) * ((1 - lam) * lam)


def _k_linear_1l(lam: Fraction) -> UniPoly:
    # ... for the 1 <-> lambda root swap
    return UniPoly([-lam, lam + 1]) * lam


def _provenance(spec: FamilySpec, method: str, t_of_u: RatFunc | None, factor_polys, notes: str = "") -> dict:
    recipe = RECIPES[spec.id]
    prov = {
        "family": spec.id,
        "params": {k: rat_to_str(v) for k, v in spec.params.items()},
        "method": method,
        "claimed_rank": recipe.rank,
        "degree": recipe.degree,
        "factor_polys": [poly_to_json(fp) for fp in factor_polys],
    }
    if t_of_u is not None:
        prov["t_of_u"] = t_of_u.to_str("u")
    if notes:
        prov["notes"] = notes
    return prov


# ---------------------------------------------------------------------------
# Construction steps: identities f(h) = k*f*j^2 and the conics trivializing k
# ---------------------------------------------------------------------------


def _root_permutations(f: UniPoly, roots: tuple, *perms: tuple[int, int, int]) -> list[TwistIdentity]:
    """One identity per Moebius map permuting the roots of f; each permutation
    is in one-line notation, sending roots[i] to roots[perm[i]]."""
    return [twist_from_permutation(f, mobius_from_triples(roots, [roots[i] for i in perm])) for perm in perms]


def _lambda_identities(lam: Fraction, *perms) -> tuple[UniPoly, list[TwistIdentity]]:
    f = _f_lambda(lam)
    return f, _root_permutations(f, (0, 1, lam), *perms)


def _identities_cor3_2(p: dict) -> tuple[UniPoly, list[TwistIdentity]]:
    a, b = p["a"], p["b"]
    f = _f_two_torsion(a, b)
    return f, [twist_from_permutation(f, mobius(-b, 0, a, b))]  # swaps the two nonzero roots, fixes 0


def _identities_cor3_3(p: dict) -> tuple[UniPoly, list[TwistIdentity]]:
    b, c = p["b"], p["c"]
    f = _f_three_subgroup(b, c)
    mu = mobius(b ** 3 - 54 * c * c, 0, 12 * b * c, 18 * c * c)
    return f, [twist_from_isogeny(f, three_isogeny(b, c), mu)]


def _identities_thm4_3(p: dict) -> tuple[UniPoly, list[TwistIdentity]]:
    a, b = p["a"], p["b"]
    f = UniPoly([0, a * a * b * b, -(b + a * a * b), 1])  # x (x - b) (x - a^2 b)
    q = a * a - 3 * a + 4
    mu = mobius(a * (a + 1) * (a - 1) ** 2 * b, -a * (a + 1) * (a - 1) ** 2 * b * b, -q, a * (a + 1) * b)
    tid_iso = twist_from_isogeny(f, two_isogeny_quotient(CubicCurve(f)), mu)
    return f, [tid_iso] + _root_permutations(f, (0, b, a * a * b), (0, 2, 1))


# Most conic inputs are the displayed k's, which differ from the identities'
# k by square constants; using the identities' k instead would change t(u)
# and so the golden files.


def _conic_through(k1: UniPoly, k2: UniPoly, t0: Fraction) -> RatFunc:
    return conic_param_double(k1, k2, conic_point_for(k1, k2, t0))


def _conic_thm4_1(p: dict, tids) -> RatFunc:
    lam = -2 * p["a"] ** 2
    r0 = p["a"] * (lam - 1)
    return conic_param_double(_k_linear_01(lam), _k_linear_0l(lam), ConicPoint((lam + 1) / 2, r0, r0))


def _conic_thm4_2a(p: dict, tids) -> RatFunc:
    lam = _lambda_2a(p)
    return _conic_through(_k_linear_0l(lam), _k_linear_cycle(lam), 2 * lam / (lam + 1))


def _conic_thm4_2b(p: dict, tids) -> RatFunc:
    lam = _lambda_2b(p)
    return _conic_through(_k_linear_cycle(lam), _k_linear_1l(lam), 1 / lam)


def _conic_thm4_3(p: dict, tids) -> RatFunc:
    a, b = p["a"], p["b"]
    k1p = UniPoly([-a * (a + 1) * b, a * a - 3 * a + 4]) * ((a - 1) * a * b)
    k2p = UniPoly([-a * a * b, a * a + 1]) * b
    return conic_param_double(k1p, k2p, ConicPoint(a * a * b, (a - 1) ** 2 * a * b, a * a * b))


def _attach_quartic_factors(fam: TwistFamily, t_of_u: RatFunc) -> TwistFamily:
    """Record the quartic split of g induced by the roots 0, 1, lambda of the
    base cubic x(x - 1)(x - lambda), whose x coefficient is lambda."""
    quartics = [(t_of_u - r).num for r in (Fraction(0), Fraction(1), fam.base.f.coeff(1))]
    k, _ = square_class(RatFunc(prod(quartics, start=ONE)) / RatFunc(fam.g))
    if k != ONE:
        raise ForgeError("quartic factor split does not multiply to g up to squares")
    prov = dict(fam.provenance)
    prov["factor_polys"] = [poly_to_json(qn) for qn in quartics]
    prov["quartic_split"] = True
    return TwistFamily(fam.base, fam.g, fam.points, fam.claimed_rank, prov)


# ---------------------------------------------------------------------------
# Families built without twist identities
# ---------------------------------------------------------------------------

_MESTRE_NOTES = "points at x = h1(u^2), h2(u^2); u = sqrt(t)"


def _mestre_factors(a: Fraction, b: Fraction) -> list[UniPoly]:
    bracket = UniPoly([1, 0, 1, 0, 1]) ** 3 * (b * b) + UniPoly([0, 0, 0, 0, 1]) * UniPoly([1, 0, 1]) ** 2 * a ** 3
    return [UniPoly([-a * b]), bracket, UniPoly([1, 0, 1])]


def _pipeline_mestre3_4(spec: FamilySpec) -> TwistFamily:
    a, b = spec.params["a"], spec.params["b"]
    f = UniPoly([b, a, 0, 1])
    # the two covering substitutions, already reduced: h1 = -b(t^2+t+1)/(a(t+1)),
    # h2 = -b(t^3-1)/(a t (t^2-1)), evaluated at t = u^2
    u2 = RatFunc(UniPoly([0, 0, 1]))
    h1 = RatFunc(UniPoly([b, b, b]) * -1, UniPoly([a, a])).compose(u2)
    h2 = RatFunc(UniPoly([-b, 0, 0, b]) * -1, UniPoly([0, -a, 0, a])).compose(u2)
    g, _ = square_class(compose(f, h1))
    pts = tuple(CurvePoint(x, ratfunc_sqrt(compose(f, x) / RatFunc(g)).sign_normalized()) for x in (h1, h2))
    prov = _provenance(spec, "double-cover", None, _mestre_factors(a, b), notes=_MESTRE_NOTES)
    return checked_family(TwistFamily(CubicCurve(f), g, pts, 2, prov))


# x-coordinate whose cubic image has the square class of 6(u^3 - 33u^2 - 33u + 1);
# the twist by that g carries the resulting nonconstant point, pinning rank 1.
REM4_6_X = RatFunc(UniPoly([25, -10, 1]), UniPoly([24, 24]))


def _pipeline_rem4_6(spec: FamilySpec) -> TwistFamily:
    g, j = square_class(compose(_F_CONGRUENT, REM4_6_X))
    y = j.sign_normalized()
    prov = _provenance(spec, "single-cover", None, [])
    return checked_family(TwistFamily(CubicCurve(_F_CONGRUENT), g, (CurvePoint(REM4_6_X, y),), 1, prov))


# ---------------------------------------------------------------------------
# Display-route builders (hard-coded formulas)
# ---------------------------------------------------------------------------


def _displayed(spec: FamilySpec, f: UniPoly, factors, points, method="display", notes="") -> TwistFamily:
    """The family on the displayed twist g, the product of `factors`."""
    g = prod(factors, start=ONE)
    prov = _provenance(spec, method, None, factors, notes)
    return checked_family(TwistFamily(CubicCurve(f), g, tuple(points), RECIPES[spec.id].rank, prov))


def _displayed_g(spec: FamilySpec, pipe: TwistFamily, factors, method="display", notes="") -> TwistFamily:
    """The displayed g with the pipeline family's points rescaled onto its twist."""
    rho = ratfunc_sqrt(RatFunc(pipe.g) / RatFunc(prod(factors, start=ONE)))
    pts = [CurvePoint(p.x, (p.y * rho).sign_normalized()) for p in pipe.points]
    return _displayed(spec, pipe.base.f, factors, pts, method, notes)


def _display_cor3_2(spec: FamilySpec) -> TwistFamily:
    a, b = spec.params["a"], spec.params["b"]
    quartic = UniPoly([b ** 4, 0, 2 * b * b - a * a * b, 0, 1])
    p1 = CurvePoint(
        RatFunc(UniPoly([-b * b, 0, -1]), UniPoly([a * b])),
        RatFunc(ONE, UniPoly([a * a * b * b])),
    )
    p2 = CurvePoint(
        RatFunc(UniPoly([-b ** 3, 0, -b]), UniPoly([0, 0, a])),
        RatFunc(UniPoly([b]), UniPoly([0, 0, 0, a * a])),
    )
    factors = [UniPoly([-a * b]), UniPoly([b * b, 0, 1]), quartic]
    return _displayed(spec, _f_two_torsion(a, b), factors, (p1, p2))


def _display_cor3_3(spec: FamilySpec) -> TwistFamily:
    b, c = spec.params["b"], spec.params["c"]
    sextic = UniPoly(
        [
            54 * c ** 6 - b ** 3 * c ** 4,
            0,
            54 * c ** 4 + 2 * b ** 3 * c * c,
            0,
            18 * c * c - b ** 3,
            0,
            2,
        ]
    )
    g = sextic * (-b * c)
    p1 = CurvePoint(
        RatFunc(UniPoly([-3 * c * c, 0, -1]), UniPoly([2 * b * c])),
        RatFunc(ONE, UniPoly([4 * b * b * c * c])),
    )
    swing = UniPoly([0, 0, 1]) * (UniPoly([-c * c, 0, 1]) ** 2)  # u^2 (u^2 - c^2)^2
    x2 = RatFunc(g * c - swing * b ** 4, UniPoly([0, 0, 4 * b * b * c]) * UniPoly([3 * c * c, 0, 1]) ** 2)
    y2 = RatFunc(g * c + swing * (3 * b ** 4), UniPoly([0, 0, 0, 8 * b ** 3 * c]) * UniPoly([3 * c * c, 0, 1]) ** 3)
    return _displayed(spec, _f_three_subgroup(b, c), [UniPoly([-b * c]), sextic], (p1, CurvePoint(x2, y2)))


def _display_mestre3_4(spec: FamilySpec, pipe: TwistFamily) -> TwistFamily:
    return _displayed_g(spec, pipe, _mestre_factors(spec.params["a"], spec.params["b"]), notes=_MESTRE_NOTES)


def _display_thm4_1(spec: FamilySpec) -> TwistFamily:
    a = spec.params["a"]
    lam = -2 * a * a
    d_poly = UniPoly([2 - lam, 0, lam * (2 * lam - 1)])
    n_poly = UniPoly(
        [
            (lam - 2) ** 2 * (lam + 1),
            -4 * lam * (lam - 1) * (lam - 2),
            2 * lam * (lam + 1) * (2 * lam ** 2 - 3 * lam + 2),
            -4 * lam * lam * (lam - 1) * (2 * lam - 1),
            lam * lam * (lam + 1) * (2 * lam - 1) ** 2,
        ]
    )
    p1 = CurvePoint(RatFunc(n_poly, d_poly * d_poly * 2), RatFunc(ONE, d_poly ** 3 * 4))
    inner = UniPoly([0, -1, 1]) * (4 * lam) * UniPoly([2 - lam, lam * (2 * lam - 1)])
    q2 = UniPoly([lam - 2, -2 * lam * (2 * lam - 1), lam * (2 * lam - 1)])
    p2 = CurvePoint(
        RatFunc((d_poly * d_poly - inner) * (lam * lam), q2 * q2),
        RatFunc(UniPoly([a * lam]), q2 ** 3),
    )
    q3 = UniPoly([lam - 2, -(2 * lam - 4), lam * (2 * lam - 1)])
    p3 = CurvePoint(
        RatFunc(d_poly * d_poly + inner, q3 * q3 * lam),
        RatFunc(UniPoly([-a]), q3 ** 3 * (lam * lam)),
    )
    factors = [UniPoly([2]), n_poly, n_poly - d_poly * d_poly * 2, n_poly - d_poly * d_poly * (2 * lam)]
    return _displayed(spec, _f_lambda(lam), factors, (p1, p2, p3))


def _display_thm4_3(spec: FamilySpec, pipe: TwistFamily) -> TwistFamily:
    """Display g (the factored degree-11 polynomial) with pipeline-derived points
    rescaled onto the display twist."""
    a, b = spec.params["a"], spec.params["b"]
    q = a * a - 3 * a + 4
    factors = [
        UniPoly([0, -4 * b]),
        UniPoly([-a, (a - 1) ** 2]),
        UniPoly([-(a * a + 1) * (a - 1), a * a * q]),
        UniPoly([a + 1, -2 * a * (a - 1), a * q]),
        UniPoly([(a * a + 1) ** 2, -2 * a * (a - 1) ** 2 * (a * a + 1), a * (a + 1) * (a - 1) ** 2 * q]),
        UniPoly(
            [
                (a * a + 1) ** 2,
                -4 * a * (a - 1) ** 2 * (a * a + 1),
                2 * (a - 1) ** 2 * (3 * a ** 4 - 6 * a ** 3 + 5 * a * a + 2),
                -4 * a * a * (a - 1) ** 3 * q,
                a * a * (a - 1) ** 2 * q * q,
            ]
        ),
    ]
    return _displayed_g(spec, pipe, factors, method="display-g+derived-points")


def _display_thm4_5(spec: FamilySpec) -> TwistFamily:
    p1 = CurvePoint(
        RatFunc(UniPoly([-1, 0, 6, 0, -1]), UniPoly([1, 0, 1]) ** 2 * 3),
        RatFunc(UniPoly([2]), UniPoly([1, 0, 1]) ** 3 * 9),
    )
    p2 = CurvePoint(
        RatFunc(UniPoly([-1, 0, -6, 0, -1]), UniPoly([-1, 0, 1]) ** 2 * 3),
        RatFunc(UniPoly([2]), UniPoly([-1, 0, 1]) ** 3 * 9),
    )
    p3 = CurvePoint(
        RatFunc(UniPoly([1, 0, 0, 0, 1]), UniPoly([0, 0, 6])),
        RatFunc(ONE, UniPoly([0, 0, 0, 36])),
    )
    factors = [UniPoly([6]), UniPoly([1, 0, 0, 0, 1]), UniPoly([1, 0, 6, 0, 1]), UniPoly([1, 0, -6, 0, 1])]
    return _displayed(spec, _F_CONGRUENT, factors, (p1, p2, p3))


def _display_rem4_6(spec: FamilySpec, pipe: TwistFamily) -> TwistFamily:
    return _displayed_g(
        spec,
        pipe,
        [UniPoly([6]), UniPoly([1, 1]), UniPoly([1, -34, 1])],
        notes="degree 3 pins rank exactly 1 by the genus bound; the twist by g(u^8) has rank 3, not 4",
    )


# ---------------------------------------------------------------------------
# The recipe table
# ---------------------------------------------------------------------------


class Recipe(Record):
    """One family: its parameters, its construction, and its displayed data.

    The construction is either the twist `identities` f(h) = k*f*j^2 for the
    parameters, followed by the `conic` making each k(t(u)) a square, or, for
    a family without identities, a `pipeline` of its own.  `display` builds
    the family from the printed formulas; `display_g` puts the construction's
    points onto the printed g; without either the construction is the source.
    Each constraint is (violated(params), what the family requires).
    """

    __slots__ = (
        "defaults", "degree", "rank", "constraints", "identities", "conic",
        "method", "pipeline", "display", "display_g", "quartic_split",
    )

    def __init__(
        self,
        defaults: dict[str, Fraction],
        degree: int,
        rank: int,
        constraints: tuple[tuple[Callable[[dict], bool], str], ...] = (),
        identities: Callable[[dict], tuple[UniPoly, list[TwistIdentity]]] | None = None,
        conic: Callable[[dict, list[TwistIdentity]], RatFunc] | None = None,
        method: str = "",
        pipeline: Callable[[FamilySpec], TwistFamily] | None = None,
        display: Callable[[FamilySpec], TwistFamily] | None = None,
        display_g: Callable[[FamilySpec, TwistFamily], TwistFamily] | None = None,
        quartic_split: bool = False,
    ):
        self.defaults = defaults
        self.degree = degree
        self.rank = rank
        self.constraints = constraints
        self.identities = identities
        self.conic = conic
        self.method = method
        self.pipeline = pipeline
        self.display = display
        self.display_g = display_g
        self.quartic_split = quartic_split


RECIPES: dict[str, Recipe] = {
    "cor3_2": Recipe(
        defaults={"a": Fraction(1), "b": Fraction(2)},
        degree=6,
        rank=2,
        constraints=(
            (lambda p: p["a"] * p["b"] == 0, "a*b != 0"),
            (lambda p: p["a"] ** 2 == 4 * p["b"], "a^2 != 4b (nonsingular cubic)"),
        ),
        identities=_identities_cor3_2,
        conic=lambda p, tids: conic_param_single(UniPoly([-p["b"] * p["b"], -p["a"] * p["b"]])),
        method="root-permutation",
        display=_display_cor3_2,
    ),
    "cor3_3": Recipe(
        defaults={"b": Fraction(3), "c": Fraction(1)},
        degree=6,
        rank=2,
        constraints=(
            (lambda p: p["b"] * p["c"] == 0, "b*c != 0"),
            (lambda p: p["b"] ** 3 == 54 * p["c"] ** 2, "b^3 != 54c^2 (nonsingular cubic)"),
        ),
        identities=_identities_cor3_3,
        conic=lambda p, tids: conic_param_single(UniPoly([-3 * p["c"] * p["c"], -2 * p["b"] * p["c"]])),
        method="isogeny",
        display=_display_cor3_3,
    ),
    "mestre3_4": Recipe(
        defaults={"a": Fraction(1), "b": Fraction(2)},
        degree=14,
        rank=2,
        constraints=(
            (lambda p: p["a"] * p["b"] == 0, "a*b != 0"),
            (lambda p: 4 * p["a"] ** 3 + 27 * p["b"] ** 2 == 0, "4a^3 + 27b^2 != 0 (nonsingular cubic)"),
        ),
        pipeline=_pipeline_mestre3_4,
        display_g=_display_mestre3_4,
    ),
    "thm4_1": Recipe(
        defaults={"a": Fraction(1)},
        degree=12,
        rank=3,
        constraints=((lambda p: p["a"] == 0, "a != 0 (lambda = -2a^2 nonzero)"),),
        identities=lambda p: _lambda_identities(-2 * p["a"] ** 2, (1, 0, 2), (2, 1, 0)),
        conic=_conic_thm4_1,
        method="two-permutations",
        display=_display_thm4_1,
    ),
    "thm4_2a": Recipe(
        defaults={"a": Fraction(2)},
        degree=12,
        rank=3,
        constraints=((lambda p: p["a"] in (0, 1, -1), "a not in {0, 1, -1}"),),
        identities=lambda p: _lambda_identities(_lambda_2a(p), (2, 1, 0), (2, 0, 1)),
        conic=_conic_thm4_2a,
        method="two-permutations",
        quartic_split=True,
    ),
    "thm4_2b": Recipe(
        defaults={"a": Fraction(1)},
        degree=12,
        rank=3,
        constraints=(
            (lambda p: p["a"] in (0, 2), "a not in {0, 2}"),
            (lambda p: p["a"] == Fraction(-1, 2), "a != -1/2 (lambda = 1 gives a singular cubic)"),
        ),
        identities=lambda p: _lambda_identities(_lambda_2b(p), (2, 0, 1), (0, 2, 1)),
        conic=_conic_thm4_2b,
        method="two-permutations",
        quartic_split=True,
    ),
    "thm4_3": Recipe(
        defaults={"a": Fraction(2), "b": Fraction(1)},
        degree=11,
        rank=3,
        constraints=(
            (lambda p: p["a"] * p["b"] == 0, "a*b != 0"),
            (lambda p: p["a"] in (1, -1), "a != +-1 (nonsingular cubic)"),
        ),
        identities=_identities_thm4_3,
        conic=_conic_thm4_3,
        method="isogeny+permutation",
        display_g=_display_thm4_3,
    ),
    "thm4_5": Recipe(
        defaults={},
        degree=12,
        rank=3,
        identities=lambda p: (_F_CONGRUENT, _root_permutations(_F_CONGRUENT, (0, 1, -1), (2, 0, 1), (2, 1, 0))),
        conic=lambda p, tids: _conic_through(tids[0].k, tids[1].k, Fraction(-1, 3)),
        method="two-permutations",
        display=_display_thm4_5,
    ),
    "rem4_6": Recipe(defaults={}, degree=3, rank=1, pipeline=_pipeline_rem4_6, display_g=_display_rem4_6),
}

FAMILY_IDS = tuple(RECIPES)
DEFAULT_PARAMS = {fid: recipe.defaults for fid, recipe in RECIPES.items()}
EXPECTED_DEGREE = {fid: recipe.degree for fid, recipe in RECIPES.items()}
CLAIMED_RANK = {fid: recipe.rank for fid, recipe in RECIPES.items()}


def build(spec: FamilySpec, pipe: TwistFamily | None = None) -> TwistFamily:
    """The catalog family: displayed g and points where available, reusing
    the pipeline family `pipe` if given."""
    recipe = RECIPES[spec.id]
    if recipe.display:
        return recipe.display(spec)
    pipe = pipe or build_pipeline(spec)
    return recipe.display_g(spec, pipe) if recipe.display_g else pipe


def build_pipeline(spec: FamilySpec) -> TwistFamily:
    """The same family re-derived through the construction pipeline."""
    recipe = RECIPES[spec.id]
    if recipe.pipeline is not None:
        return recipe.pipeline(spec)
    f, tids = recipe.identities(spec.params)
    t_of_u = recipe.conic(spec.params, tids)
    assemble = assemble_rank2 if len(tids) == 1 else assemble_rank3
    fam = assemble(f, *tids, t_of_u, _provenance(spec, recipe.method, t_of_u, []))
    return _attach_quartic_factors(fam, t_of_u) if recipe.quartic_split else fam


def twist_identities(spec: FamilySpec) -> list[TwistIdentity]:
    """The certified f(h) = k*f*j^2 identities underlying a family's construction.

    Families built without such identities (the double-cover route and the
    degree-3 tower base) return an empty list.
    """
    identities = RECIPES[spec.id].identities
    return identities(spec.params)[1] if identities else []


def rem4_6_tower() -> tuple[TwistFamily, TwistFamily, TwistFamily]:
    """Twists by g(u), g(u^2), g(u^4) for g = 6(u^3 - 33u^2 - 33u + 1),
    carrying 1, 2, and 3 independent points respectively."""
    spec = FamilySpec.make("rem4_6")
    fam1 = build(spec)
    g2 = fam1.g.substitute_power(2)
    p1 = CurvePoint(
        RatFunc(UniPoly([-1, 6, -1]), UniPoly([1, 1]) ** 2 * 3),
        RatFunc(UniPoly([2]), UniPoly([1, 1]) ** 3 * 9),
    )
    p2 = CurvePoint(
        RatFunc(UniPoly([-1, -6, -1]), UniPoly([-1, 1]) ** 2 * 3),
        RatFunc(UniPoly([2]), UniPoly([-1, 1]) ** 3 * 9),
    )
    prov2 = {
        "family": "rem4_6",
        "params": {},
        "method": "tower-substitution",
        "claimed_rank": 2,
        "degree": 6,
        "factor_polys": [["6"], ["1", "0", "1"], ["1", "0", "-34", "0", "1"]],
        "notes": "points of the degree-12 family with u replaced by sqrt(u)",
    }
    fam2 = checked_family(TwistFamily(fam1.base, g2, (p1, p2), 2, prov2))
    top = build(FamilySpec.make("thm4_5"))
    prov3 = dict(top.provenance, notes="tower top: same curve as the degree-12 family")
    return fam1, fam2, TwistFamily(top.base, top.g, top.points, 3, prov3)


# ---------------------------------------------------------------------------
# Crosscheck
# ---------------------------------------------------------------------------


def crosscheck(spec: FamilySpec) -> dict:
    """Compare the display-backed family against the pipeline-derived one,
    as the JSON dict printed: family, params, g_square_class_matches,
    point_matches, messages and ok.

    g must agree up to rational-function squares; every catalog point must
    share its x with a pipeline point rescaled onto the catalog twist.
    Discrepancies are itemized in the report, never silently passed.
    """
    pipe = build_pipeline(spec)
    cat = build(spec, pipe)
    messages: list[str] = []
    quotient = RatFunc(pipe.g) / RatFunc(cat.g)
    k, rho = square_class(quotient)
    g_ok = k == ONE
    point_matches = []
    if not g_ok:
        messages.append(f"g square-class quotient is {k.to_str('u')}, not 1")
    else:
        rescaled = [CurvePoint(p.x, p.y * rho) for p in pipe.points]
        for i, cp in enumerate(cat.points, start=1):
            found = None
            for rp in rescaled:
                if rp.x == cp.x:
                    found = "exact" if rp.y == cp.y else "negation"
                    break
            point_matches.append({"point": i, "matched": found is not None, "via": found or "none"})
            if found is None:
                messages.append(f"catalog point {i} not matched by any pipeline point")
    return {
        "family": spec.id,
        "params": {k_: rat_to_str(v) for k_, v in spec.params.items()},
        "g_square_class_matches": g_ok,
        "point_matches": point_matches,
        "messages": messages,
        "ok": g_ok and all(m["matched"] for m in point_matches),
    }
