"""JSON encoding for families, certificates, and reports.

Rationals are serialized as "num/den" strings so no consumer ever rounds;
polynomials and rational-function numerators/denominators are coefficient
arrays, lowest degree first.
"""

from __future__ import annotations

import json

from .curves import CubicCurve, CurvePoint
from .exactmath import ExactMathError, RatFunc, UniPoly, rat_from_str, rat_to_str
from .twistforge import TwistFamily


def poly_to_json(p: UniPoly) -> list[str]:
    return [rat_to_str(c) for c in p.coeffs]


def poly_from_json(coeffs) -> UniPoly:
    if not isinstance(coeffs, list):
        raise TypeError(f"a polynomial must be a list of coefficients, not {type(coeffs).__name__}")
    return UniPoly([rat_from_str(c) for c in coeffs])


def ratfunc_to_json(r: RatFunc) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfunc_from_json(d) -> RatFunc:
    return RatFunc(poly_from_json(d["num"]), poly_from_json(d["den"]))


def point_to_json(p: CurvePoint) -> dict:
    if p.is_infinity:
        return {"infinity": True}
    return {"x": ratfunc_to_json(p.x), "y": ratfunc_to_json(p.y)}


def point_from_json(d) -> CurvePoint:
    if "infinity" in d:
        if d["infinity"] is not True:
            raise ValueError(f"a point's 'infinity' must be true, not {d['infinity']!r}")
        return CurvePoint(None, None)
    return CurvePoint(ratfunc_from_json(d["x"]), ratfunc_from_json(d["y"]))


def family_to_json(fam: TwistFamily) -> dict:
    f = fam.base.f
    return {
        "curve": {"e2": rat_to_str(f.coeff(2)), "e1": rat_to_str(f.coeff(1)), "e0": rat_to_str(f.coeff(0))},
        "g": poly_to_json(fam.g),
        "points": [point_to_json(p) for p in fam.points],
        "claimed_rank": fam.claimed_rank,
        "provenance": fam.provenance,
    }


def _rank_from_json(n) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"a rank must be an integer, not {type(n).__name__}")
    if n < 0:
        raise ValueError(f"a rank must be nonnegative, not {n}")
    return n


def _object(d) -> dict:
    if not isinstance(d, dict):
        raise TypeError(f"must be an object, not {type(d).__name__}")
    return dict(d)


def _field(d: dict, key: str, decode):
    """decode(d[key]), raising ValueError that names the field when it is missing or malformed."""
    if key not in d:
        raise ValueError(f"family JSON lacks field {key!r}")
    try:
        return decode(d[key])
    except KeyError as exc:
        raise ValueError(f"family JSON field {key!r} lacks {exc}") from None
    except (TypeError, ValueError, AttributeError, ExactMathError) as exc:
        raise ValueError(f"family JSON field {key!r} is malformed: {exc}") from None


def family_from_json(d) -> TwistFamily:
    """Decode a family without validating it (`certify_family` validates its input).

    Input that does not follow the schema raises ValueError naming the field.
    """
    if not isinstance(d, dict):
        raise ValueError(f"family JSON must be an object, not {type(d).__name__}")
    e0, e1, e2 = _field(d, "curve", lambda cur: [rat_from_str(cur[k]) for k in ("e0", "e1", "e2")])
    return TwistFamily(
        base=CubicCurve(UniPoly([e0, e1, e2, 1])),
        g=_field(d, "g", poly_from_json),
        points=_field(d, "points", lambda pts: tuple(point_from_json(p) for p in pts)),
        claimed_rank=_field(d, "claimed_rank", _rank_from_json),
        provenance=_field(d, "provenance", _object) if "provenance" in d else {},
    )


def dump_json(obj: dict, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
