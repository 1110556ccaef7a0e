"""Machine-checked rank certificates for twist families.

A certificate records, with replayable witnesses: symbolic on-curve checks,
nonconstancy (hence infinite order) of every point, an independence proof,
and the genus upper bound.  Independence is established either by the
u -> -u eigenvalue split (for a fixed/negated pair) or by specializing u to
a rational u0 and reducing mod good primes (Siksek, Rocky Mountain J. Math.
25, 1995): for a prime ell, rows of discrete logarithms mod ell that have
F_ell-rank k, together with one prime showing E(Q)[ell] = 0, prove that the
specialized points span rank >= k.  Specialization is a homomorphism
(Silverman, Advanced Topics, III.11), so the same bound holds over Q(u).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .curves import CubicCurve, CurvePoint, TwistedCurve, on_twist
from .exactmath import (
    _SMALL_PRIMES,
    ExactMathError,
    RatFunc,
    T,
    UniPoly,
    discriminant_cubic,
    is_probable_prime,
    rat_to_str,
    rational_sqrt,
    squarefree_part_int,
)
from .twistforge import TwistFamily, genus_upper_bound, validate_family

# the primes ell whose F_ell-ranks are tried, in order
ELLS = (3, 5, 7)

DEFAULT_SAMPLES = 3
DEFAULT_PRIME_BUDGET = 60


class CertifyError(ValueError):
    """A structural check failed; the message names the failing check."""

    def __init__(self, check_name: str, message: str = ""):
        self.check_name = check_name
        super().__init__(message or f"certification aborted at check {check_name!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    witness: dict

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


@dataclass(frozen=True)
class RankCertificate:
    family: str
    params: dict
    checks: tuple[CheckResult, ...]
    certified_lower: int
    genus_upper: int

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "checks": [c.to_json() for c in self.checks],
            "certified_lower": self.certified_lower,
            "genus_upper": self.genus_upper,
        }


@dataclass(frozen=True)
class SpecializedTwist:
    """A numeric twist obtained from a family at u = u0, normalized so the
    twisting constant is the squarefree part of g(u0)."""

    u0: Fraction
    d: int
    base: CubicCurve
    points: tuple[CurvePoint, ...]

    def curve(self) -> TwistedCurve:
        return TwistedCurve(self.base, Fraction(self.d))

    def to_json(self) -> dict:
        return {
            "u0": rat_to_str(self.u0),
            "d": self.d,
            "points": [
                {"x": rat_to_str(p.x), "y": rat_to_str(p.y)} for p in self.points
            ],
        }


def specialize(fam: TwistFamily, u0) -> SpecializedTwist:
    """Substitute a rational u0, clearing the square part of g(u0) into the
    y-coordinates so the twist constant is a squarefree integer."""
    u0 = Fraction(u0)
    g_val = RatFunc(fam.g).evaluate(u0)
    if g_val == 0:
        raise CertifyError("specialize", f"u0 = {rat_to_str(u0)} is a root of g")
    d = squarefree_part_int(g_val.numerator * g_val.denominator)
    w = rational_sqrt(g_val / d)
    pts = []
    for i, p in enumerate(fam.points, start=1):
        try:
            x = p.x.evaluate(u0)
            y = p.y.evaluate(u0)
        except ExactMathError as exc:
            raise CertifyError("specialize", f"u0 = {rat_to_str(u0)} hits a pole of point {i}: {exc}")
        pts.append(CurvePoint(x, y * w))
    for i, p in enumerate(pts, start=1):
        if not on_twist(d, fam.base.f, p):
            raise CertifyError("specialized-on-curve", f"specialized point {i} left the curve (internal error)")
    return SpecializedTwist(u0, d, fam.base, tuple(pts))


# ---------------------------------------------------------------------------
# Mod-p reduction
# ---------------------------------------------------------------------------


class BadPrimeError(ValueError):
    """The supplied prime does not give good reduction for this data."""


class _ModCurve:
    """D*y^2 = f(x) over F_p with the same chord-tangent law as in Q."""

    __slots__ = ("p", "d", "e2", "e1", "e0")

    def __init__(self, p: int, d: int, f: UniPoly):
        self.p = p
        self.d = d % p
        self.e2 = _mod_frac(f.coeff(2), p)
        self.e1 = _mod_frac(f.coeff(1), p)
        self.e0 = _mod_frac(f.coeff(0), p)

    def f_at(self, x: int) -> int:
        return (((x + self.e2) * x + self.e1) * x + self.e0) % self.p

    def fprime_at(self, x: int) -> int:
        return (3 * x * x + 2 * self.e2 * x + self.e1) % self.p

    def on_curve(self, pt) -> bool:
        x, y = pt
        return (self.d * y * y - self.f_at(x)) % self.p == 0

    def add(self, pt1, pt2):
        p = self.p
        if pt1 is None:
            return pt2
        if pt2 is None:
            return pt1
        x1, y1 = pt1
        x2, y2 = pt2
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            slope = self.fprime_at(x1) * pow(2 * self.d * y1 % p, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (self.d * slope * slope - self.e2 - x1 - x2) % p
        y3 = (-(y1 + slope * (x3 - x1))) % p
        return (x3, y3)

    def mul(self, n: int, pt):
        acc = None
        while n:
            if n & 1:
                acc = self.add(acc, pt)
            pt = self.add(pt, pt)
            n >>= 1
        return acc


def _mod_frac(q: Fraction, p: int) -> int:
    if q.denominator % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    return q.numerator * pow(q.denominator, -1, p) % p


def good_primes(spec: SpecializedTwist, how_many: int) -> list[int]:
    """The first `how_many` primes above max(ELLS) of good reduction for the
    specialized curve whose points reduce to affine points (fewer if the
    small-prime table runs out)."""
    disc = discriminant_cubic(spec.base.f)
    bad = 2 * abs(spec.d) * abs(disc.numerator) * disc.denominator
    for coeff in spec.base.f.coeffs:
        bad *= coeff.denominator
    for pt in spec.points:
        bad *= Fraction(pt.x).denominator * Fraction(pt.y).denominator
        # a point reducing to (x, 0) mod p is 2-torsion there; harmless, keep p
    return [p for p in _SMALL_PRIMES if p > ELLS[-1] and bad % p != 0][:how_many]


def _count_points(mc: _ModCurve) -> int:
    """#E(F_p) = 1 + sum_x (1 + (D f(x) / p)), counted through the number of
    square roots of each residue."""
    p = mc.p
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    d_inv = pow(mc.d, -1, p)
    return 1 + sum(roots[mc.f_at(x) * d_inv % p] for x in range(p))


def _ell_row(mc: _ModCurve, order: int, ell: int, reduced) -> list[int]:
    """dlog of (order/ell)*P for each reduced P, in the cyclic group of order
    ell that these multiples lie in when v_ell(order) = 1."""
    images = [mc.mul(order // ell, pt) for pt in reduced]
    gen = next((q for q in images if q is not None), None)
    dlog = {}
    acc = gen
    for k in range(1, ell):
        dlog[acc] = k
        acc = mc.add(acc, gen)
    dlog[None] = 0
    row = [dlog.get(q) for q in images]
    if acc is not None or None in row:
        raise CertifyError("point-count", f"#E(F_{mc.p}) = {order} is wrong (internal error)")
    return row


def _extend_basis(basis: list[tuple[int, list[int]]], row: list[int], ell: int) -> bool:
    """Add the row to an echelon basis over F_ell; False if it is dependent."""
    for pivot, b in basis:
        c = row[pivot]
        if c:
            row = [(x - c * y) % ell for x, y in zip(row, b)]
    pivot = next((i for i, x in enumerate(row) if x), None)
    if pivot is None:
        return False
    inv = pow(row[pivot], -1, ell)
    basis.append((pivot, [x * inv % ell for x in row]))
    return True


@dataclass(frozen=True)
class SieveVerdict:
    """The points span a subgroup of rank >= `rank`, proved at `ell`.

    Rows: at each prime p of `primes_used`, v_ell(#E(F_p)) = 1 and
    P -> dlog((#E/ell) * P) is an F_ell-linear functional on E(Q)/ell; these
    rows have F_ell-rank `rank`.  At `torsion_prime`, ell does not divide
    #E(F_p), so E(Q)[ell] = 0 and the F_ell-rank bounds the Z-rank.
    """

    independent: bool
    rank: int
    ell: int
    primes_used: tuple[int, ...]
    torsion_prime: int | None

    def to_json(self) -> dict:
        return {
            "verdict": "independent" if self.independent else "not-proved",
            "rank": self.rank,
            "ell": self.ell,
            "primes": list(self.primes_used),
            "torsion_prime": self.torsion_prime,
        }


def _reduce_at(p: int, pts, d: int, f: UniPoly, disc: Fraction):
    """The curve mod p, its point count, and the reduced points."""
    if p <= ELLS[-1] or not is_probable_prime(p) or d % p == 0 or _mod_frac(disc, p) == 0:
        raise BadPrimeError(f"{p} is not a prime above {ELLS[-1]} of good reduction")
    mc = _ModCurve(p, d, f)
    reduced = [(_mod_frac(Fraction(pt.x), p), _mod_frac(Fraction(pt.y), p)) for pt in pts]
    if not all(mc.on_curve(rp) for rp in reduced):
        raise BadPrimeError(f"bad reduction at {p}")
    return mc, _count_points(mc), reduced


def mod_p_relation_sieve(points, d: int, f: UniPoly, primes) -> SieveVerdict:
    """Prove a lower bound on the rank of the subgroup the points generate by
    reduction mod the given good primes, trying each ell in ELLS in turn.

    The first ell whose rows reach full rank, with a torsion prime, gives an
    independent verdict; otherwise the best proved rank is reported.
    """
    pts = tuple(points)
    r = len(pts)
    for pt in pts:
        if not on_twist(d, f, pt):
            raise CertifyError("sieve-input", "sieve input point is not on the curve")
    disc = discriminant_cubic(f)
    reductions = {}
    verdicts = []
    for ell in ELLS:
        basis: list = []
        used = []
        torsion = None
        for p in primes:
            if p not in reductions:
                reductions[p] = _reduce_at(p, pts, d, f, disc)
            mc, order, reduced = reductions[p]
            if order % ell:
                torsion = torsion or p
            elif order % (ell * ell) and len(basis) < r:
                if _extend_basis(basis, _ell_row(mc, order, ell, reduced), ell):
                    used.append(p)
            if torsion and len(basis) == r:
                break
        if torsion is None:  # the rows bound the rank only once E(Q)[ell] = 0 is shown
            used = []
        verdict = SieveVerdict(len(used) == r, len(used), ell, tuple(used), torsion)
        if verdict.independent:
            return verdict
        verdicts.append(verdict)
    return max(verdicts, key=lambda v: v.rank)


def certify_specialization(spec: SpecializedTwist, prime_budget: int) -> SieveVerdict:
    """The mod-ell verdict on the specialized points at their first
    `prime_budget` good primes."""
    return mod_p_relation_sieve(spec.points, spec.d, spec.base.f, good_primes(spec, prime_budget))


# ---------------------------------------------------------------------------
# The u -> -u eigenvalue split
# ---------------------------------------------------------------------------


def automorphism_classification(fam: TwistFamily) -> list[str] | None:
    """Classify each point under u -> -u as fixed / negated / moved.

    Applicable only when g is even (so the substitution acts on the twist);
    returns None otherwise.
    """
    if not fam.g.is_even():
        return None
    out = []
    for p in fam.points:
        x2, y2 = p.x.compose(-T), p.y.compose(-T)
        if x2 == p.x and y2 == p.y:
            out.append("fixed")
        elif x2 == p.x and y2 == -p.y:
            out.append("negated")
        else:
            out.append("moved")
    return out


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------


def certify_family(
    fam: TwistFamily,
    samples: int = DEFAULT_SAMPLES,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> RankCertificate:
    """Run every certificate check in order; structural failures abort with
    the failing check named, independence failures only lower the result."""
    if samples < 1 or prime_budget < 1:
        raise ValueError(f"samples and prime_budget must be positive, got {samples} and {prime_budget}")
    r = len(fam.points)
    indices = range(1, r + 1)
    infinite_order = "nonconstant x implies infinite order"
    # the structural checks in certificate order, all decided by one validate_family pass
    checks = (
        [CheckResult(f"on-curve[{i}]", "pass", {"point": i}) for i in indices]
        + [CheckResult(f"nonconstant-x[{i}]", "pass", {"point": i, "reason": infinite_order}) for i in indices]
        + [CheckResult(name, "pass", {}) for name in ("g-squarefree", "g-nonconstant")]
    )
    failures = validate_family(fam)
    for check in checks:
        if check.name in failures:
            raise CertifyError(check.name)
    if "g-degree" in failures:
        raise CertifyError("g-degree")

    genus = genus_upper_bound(fam.g)
    certified = 1 if r >= 1 else 0
    independence_witness: dict = {"strategy": "single nonconstant point"} if r else {}

    if r == 2:
        classes = automorphism_classification(fam)
        if classes is not None and sorted(classes) == ["fixed", "negated"]:
            certified = 2
            independence_witness = {"strategy": "u->-u eigensplit", "classes": classes}
            checks.append(CheckResult("independence", "pass", independence_witness))
    if r >= 2 and certified < r:
        witnesses = []
        # u0 = 2, 3, ...; skip roots of g, poles, and points with y = 0 (2-torsion)
        for u0 in count(2):
            try:
                spec = specialize(fam, u0)
            except CertifyError as exc:
                if exc.check_name != "specialize":
                    raise
                continue
            if any(pt.y == 0 for pt in spec.points):
                continue
            verdict = certify_specialization(spec, prime_budget)
            witnesses.append({"u0": rat_to_str(spec.u0), "d": spec.d, **verdict.to_json()})
            certified = max(certified, verdict.rank)
            if verdict.independent or len(witnesses) == samples:
                break
        independence_witness = {"strategy": "specialization + mod-ell reduction", "specializations": witnesses}
        checks.append(CheckResult("independence", "pass" if certified == r else "inconclusive", independence_witness))
    elif r == 1:
        checks.append(CheckResult("independence", "pass", independence_witness))

    checks.append(
        CheckResult(
            "genus-bound",
            "pass" if certified <= genus else "fail",
            {"genus_upper": genus, "certified_lower": certified},
        )
    )
    if certified > genus:
        raise CertifyError("genus-bound", "certified rank exceeded the genus bound (internal error)")
    prov = fam.provenance
    return RankCertificate(
        family=prov.get("family", "?"),
        params=prov.get("params", {}),
        checks=tuple(checks),
        certified_lower=certified,
        genus_upper=genus,
    )
