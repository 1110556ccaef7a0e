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

import functools
import math
from fractions import Fraction
from itertools import count, islice, tee

from .curves import CurvePoint
from .exactmath import (
    _SMALL_PRIMES,
    CheckError,
    ONE,
    ExactMathError,
    Record,
    T,
    UniPoly,
    discriminant_cubic,
    eval_form,
    rat_to_str,
    rational_sqrt,
    squarefree_part_int,
)
from .twistforge import TwistFamily, genus_upper_bound, validate_family

# the primes ell whose F_ell-ranks are tried, in order
ELLS = (3, 5, 7)

DEFAULT_SAMPLES = 3
DEFAULT_PRIME_BUDGET = 60


class CertifyError(CheckError, ValueError):
    """A structural check failed; the message names the failing check."""

    def __init__(self, check_name: str, message: str = ""):
        self.check_name = check_name
        super().__init__(message or f"certification aborted at check {check_name!r}")


class SpecializedTwist(Record):
    """A numeric twist obtained from a family at u = u0, normalized so the
    twisting constant is the squarefree part of g(u0)."""

    __slots__ = ("u0", "d", "base", "points")

    def to_json(self) -> dict:
        return {
            "u0": rat_to_str(self.u0),
            "d": self.d,
            "points": [
                {"x": rat_to_str(p.x), "y": rat_to_str(p.y)} for p in self.points
            ],
        }


def specialize(fam: TwistFamily, u0, d: int | None = None) -> SpecializedTwist:
    """Substitute a rational u0, clearing the square part of g(u0) into the
    y-coordinates so the twist constant is a squarefree integer.

    The family must have passed structural_checks, which proves
    g*y^2 = f(x) over Q(u).  Evaluation at a u0 that is neither a root of g
    nor a pole is a ring map, so the returned points lie on D*y^2 = f(x) and
    are not tested again.  A caller that has proved D squarefree, such as
    the density sieve, may pass it as d, so that g(u0) is not factored; a d
    for which g(u0)/d is not a rational square is a "witness mismatch".
    Every failure is a CertifyError named "specialize".
    """
    u0 = Fraction(u0)
    g_val = fam.g(u0)
    if g_val == 0:
        raise CertifyError("specialize", f"u0 = {rat_to_str(u0)} is a root of g")
    d = d or squarefree_part_int(g_val.numerator * g_val.denominator)
    w = rational_sqrt(g_val / d)
    if w is None:
        raise CertifyError("specialize", "witness mismatch")
    pts = []
    for i, p in enumerate(fam.points, start=1):
        try:
            x = p.x.evaluate(u0)
            y = p.y.evaluate(u0)
        except ExactMathError as exc:
            raise CertifyError("specialize", f"u0 = {rat_to_str(u0)} hits a pole of point {i}: {exc}")
        pts.append(CurvePoint(x, y * w))
    return SpecializedTwist(u0, d, fam.base, tuple(pts))


# ---------------------------------------------------------------------------
# Mod-p reduction
# ---------------------------------------------------------------------------


class BadPrimeError(ValueError):
    """The supplied prime does not give good reduction for this data."""


class _ModCurve:
    """D*y^2 = f(x) over F_p with the same chord-tangent law as in Q, for
    f = x^3 + e2*x^2 + e1*x + e0 mod p; the law does not read e0."""

    __slots__ = ("p", "d", "e2", "e1")

    def __init__(self, p: int, d: int, e2: int, e1: int):
        self.p = p
        self.d = d % p
        self.e2 = e2
        self.e1 = e1

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
            slope = (3 * x1 * x1 + 2 * self.e2 * x1 + self.e1) * pow(2 * self.d * y1 % p, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (self.d * slope * slope - self.e2 - x1 - x2) % p
        y3 = (-(y1 + slope * (x3 - x1))) % p
        return (x3, y3)

    def mul(self, n: int, pt):
        """n*pt for n >= 0, by double-and-add from the top bit down."""
        if not n:
            return None
        acc = pt
        for bit in bin(n)[3:]:
            acc = self.add(acc, acc)
            if bit == "1":
                acc = self.add(acc, pt)
        return acc


def _mod_frac(q: Fraction, p: int) -> int:
    """q mod p, for p prime to the denominator of q."""
    return q.numerator * pow(q.denominator, -1, p) % p


def _frobenius_trace(p: int, e2: int, e1: int, e0: int) -> int:
    """a_p = -sum_x (f(x)/p) for f = x^3 + e2*x^2 + e1*x + e0 over F_p."""
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, (p + 1) // 2):
        chi[y * y % p] = 1
    return -sum(chi[(((x + e2) * x + e1) * x + e0) % p] for x in range(p))


class _Reductions(dict):
    """A monic cubic f mod each of its good primes.  `primes` lists, in
    table order, the small primes above max(ELLS) that divide neither a
    coefficient's denominator nor the discriminant; table[p] is (e2, e1, e0,
    a_p) with f = x^3 + e2*x^2 + e1*x + e0 mod p, filled on first use, and
    any other p raises BadPrimeError.  One a_p serves every twist:
    D*y^2 = f(x) has p + 1 - (D/p)*a_p points over F_p."""

    def __init__(self, f: UniPoly):
        super().__init__()
        self.coeffs = (f.coeff(2), f.coeff(1), f.coeff(0))
        disc = discriminant_cubic(f)
        bad = disc.numerator * disc.denominator * f.den
        self.primes = [p for p in _SMALL_PRIMES if p > ELLS[-1] and bad % p]

    def __missing__(self, p: int):
        if p not in self.primes:
            raise BadPrimeError(f"{p} is not a prime above {ELLS[-1]} of good reduction")
        e2, e1, e0 = (_mod_frac(c, p) for c in self.coeffs)
        reduction = self[p] = (e2, e1, e0, _frobenius_trace(p, e2, e1, e0))
        return reduction


# one table per cubic, for the 64 cubics used last
_reductions = functools.lru_cache(maxsize=64)(_Reductions)


def _count_points(p: int, d: int, a_p: int) -> int:
    """#E_D(F_p) = p + 1 - (D/p)*a_p for D prime to p."""
    return p + 1 - a_p if pow(d, (p - 1) // 2, p) == 1 else p + 1 + a_p


def good_primes(spec: SpecializedTwist, how_many: int) -> list[int]:
    """The first `how_many` good primes of spec.base.f, in table order,
    that divide neither D nor a coordinate denominator of the points (fewer
    if the table runs out)."""
    # a point reducing to (x, 0) mod p is 2-torsion there; harmless, keep p
    bad = spec.d
    for pt in spec.points:
        bad *= pt.x.denominator * pt.y.denominator
    return list(islice((p for p in _reductions(spec.base.f).primes if bad % p), how_many))


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


class SieveVerdict(Record):
    """The points span a subgroup of rank >= `rank`, proved at `ell`.

    Rows: at each prime p of `primes_used`, v_ell(#E(F_p)) = 1 and
    P -> dlog((#E/ell) * P) is an F_ell-linear functional on E(Q)/ell; these
    rows have F_ell-rank `rank`.  At `torsion_prime`, ell does not divide
    #E(F_p), so E(Q)[ell] = 0 and the F_ell-rank bounds the Z-rank.
    """

    __slots__ = ("independent", "rank", "ell", "primes_used", "torsion_prime")

    def to_json(self) -> dict:
        return {
            "verdict": "independent" if self.independent else "not-proved",
            "rank": self.rank,
            "ell": self.ell,
            "primes": list(self.primes_used),
            "torsion_prime": self.torsion_prime,
        }


def _reduce_at(p: int, d: int, den: int, table: _Reductions):
    """The curve mod p and its point count, from D mod p and a_p alone.

    p must be a good prime of the reduction table and prime to D and to
    den, the product of the points' coordinate denominators, else
    BadPrimeError: this is the one check that the points reduce mod p, onto
    the curve, so that the reduced points are not tested again."""
    e2, e1, _, a_p = table[p]
    if d % p == 0:
        raise BadPrimeError(f"{p} divides D")
    if den % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    return _ModCurve(p, d, e2, e1), _count_points(p, d, a_p)


def _sieve_rows(reductions, r: int) -> SieveVerdict:
    """The mod-ell verdict on r points, trying each ell in ELLS in turn.

    reductions yields (p, #E(F_p), row) at good primes, read lazily and
    once; row(ell), the F_ell row at p, is asked for only where
    v_ell(#E(F_p)) = 1.  The first ell whose rows reach rank r, with a
    torsion prime, gives an independent verdict; else the best rank does.
    """
    verdicts = []
    for ell, walk in zip(ELLS, tee(reductions, len(ELLS))):
        basis: list = []
        used = []
        torsion = None
        for p, order, row in walk:
            if order % ell:
                torsion = torsion or p
            elif order % (ell * ell) and len(basis) < r:
                if _extend_basis(basis, row(ell), ell):
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


def _point_row(mc: _ModCurve, order: int, pts, reduced: list, ell: int) -> list[int]:
    """The F_ell row of points over Q at mc.p, reducing them into `reduced`
    on first use."""
    if not reduced:
        reduced += [(_mod_frac(pt.x, mc.p), _mod_frac(pt.y, mc.p)) for pt in pts]
    return _ell_row(mc, order, ell, reduced)


def mod_p_relation_sieve(points, d: int, f: UniPoly, primes) -> SieveVerdict:
    """Prove a lower bound on the rank of the subgroup the points generate by
    reduction mod the given good primes, trying each ell in ELLS in turn.

    The points must lie on D*y^2 = f(x) over Q, as the points `specialize`
    returns do; the sieve does not test them.  Each prime must be one of
    the good primes of f (see good_primes), else BadPrimeError, and its
    point count is taken from D mod p and a_p; the points are reduced mod p
    only at a prime whose count gives an F_ell row, v_ell(#E(F_p)) = 1.
    """
    pts = tuple(points)
    table = _reductions(f)
    den = math.prod(pt.x.denominator * pt.y.denominator for pt in pts)

    def reductions():
        for p in primes:
            mc, order = _reduce_at(p, d, den, table)
            yield p, order, functools.partial(_point_row, mc, order, pts, [])

    return _sieve_rows(reductions(), len(pts))


def certify_specialization(spec: SpecializedTwist, prime_budget: int) -> SieveVerdict:
    """The mod-ell verdict on the specialized points at their first
    `prime_budget` good primes."""
    return mod_p_relation_sieve(spec.points, spec.d, spec.base.f, good_primes(spec, prime_budget))


# how u0 = rho mod p reduces in a ResidueTable; 0 is not yet screened
_GOOD, _BAD, _UNDECIDED = 1, 2, 3


class _Undecided(Exception):
    """Raised where the residue table cannot decide a D."""


class ResidueTable:
    """A family's mod-ell verdicts, from F_ell rows kept by prime and residue.

    With u0 = a/b, 2k = deg F and G(a, b) = b^(2k) g(u0), a family point
    gives X = x(u0) and Y = y(u0)/b^k on G*Y^2 = f(X), ratios of forms in
    (a, b) that mod p may be taken at (rho, 1), rho = a/b mod p, or at
    (1, 0) when p | b (rho = p).  If g(u0) = D*w^2 and p is prime to
    D*G(rho), (X, Y) -> (X, b^k*w*Y) maps c*Y^2 = f(X), c = G(rho), onto
    D*y^2 = f(x) over F_p and the family's points at rho onto the
    specialized points, so #E(F_p) and every row of _ell_row depend on
    (p, rho, ell) alone; where G(rho) = 0, p is prime to D, so p | w and
    the points reduce to (x, 0), whose row is zero at odd ell.
    screens[p], a bytearray(p + 1), classes rho as good (no coordinate
    denominator vanishes), bad (one vanishes but not its numerator, so
    good_primes skips p) or undecided (a 0/0, a pole of Y at a root of G,
    or p in a cleared denominator).
    """

    def __init__(self, fam: TwistFamily):
        self.fam = fam
        self.reductions = _reductions(fam.base.f)
        k = (fam.g.degree + 1) // 2
        # a form of degree n is its n + 1 coefficients, lowest power of a first
        self.g_den = fam.g.den
        self.g = fam.g.ints + (0,) * (2 * k - fam.g.degree)
        self.undecided = self.g_den
        self.coords = []  # (numerator form, denominator form, is a Y)
        for pt in fam.points:
            for rf, shift in ((pt.x, 0), (pt.y, k)):
                num, den = rf.num, rf.den
                self.undecided *= num.den * den.den
                s = den.degree - num.degree - shift  # the coordinate is num * b^s / den
                num_form = tuple(c * den.den for c in num.ints) + (0,) * max(s, 0)
                self.coords.append((num_form, tuple(c * num.den for c in den.ints) + (0,) * max(-s, 0), shift > 0))
        # each denominator divides a power of rad, so rad(rho) != 0 mod p clears them all
        dens = math.prod((rf.den for pt in fam.points for rf in (pt.x, pt.y)), start=ONE)
        self.rad = (dens / dens.gcd(dens.derivative())).ints
        self.screens: dict[int, bytearray] = {}
        self.rows: dict = {}  # (p, rho, ell) -> F_ell row

    @staticmethod
    def _at(form, rho: int, p: int) -> int:
        """The form at (rho, 1) mod p, or at (1, 0) for rho = p."""
        a, b = (1, 0) if rho == p else (rho, 1)
        return eval_form(form, a, b, len(form) - 1) % p

    def _screen(self, p: int, rho: int) -> int:
        if self.undecided % p == 0:
            return _UNDECIDED
        if rho < p and self._at(self.rad, rho, p):
            return _GOOD
        code = _GOOD
        for num, den, is_y in self.coords:
            if not self._at(den, rho, p):
                if self._at(num, rho, p) and (not is_y or self._at(self.g, rho, p)):
                    return _BAD
                code = _UNDECIDED
        return code

    def _row(self, p: int, rho: int, order: int, ell: int) -> list[int]:
        if (p, rho, ell) not in self.rows:
            c = self._at(self.g, rho, p) * pow(self.g_den, -1, p)
            if c:
                e2, e1, _, _ = self.reductions[p]
                xy = [self._at(num, rho, p) * pow(self._at(den, rho, p), -1, p) % p for num, den, _ in self.coords]
                reduced = list(zip(xy[::2], xy[1::2]))
                row = _ell_row(_ModCurve(p, c, e2, e1), order, ell, reduced)
            else:
                row = [0] * len(self.fam.points)
            self.rows[p, rho, ell] = row
        return self.rows[p, rho, ell]

    def _reductions_at(self, d: int, a: int, b: int, how_many: int):
        """(p, #E_D(F_p), row) at the first how_many primes that good_primes
        would take for u0 = a/b; _Undecided at an undecided prime, or when
        no prime is good."""
        good = 0
        table, screens = self.reductions, self.screens
        for p in table.primes:
            if d % p == 0:
                continue
            rho = a * pow(b, -1, p) % p if b % p else p
            screen = screens.get(p) or screens.setdefault(p, bytearray(p + 1))
            code = screen[rho] = screen[rho] or self._screen(p, rho)
            if code == _BAD:
                continue
            if code == _UNDECIDED:
                raise _Undecided
            order = _count_points(p, d, table[p][3])
            yield p, order, functools.partial(self._row, p, rho, order)
            good += 1
            if good == how_many:
                return
        if not good:
            raise _Undecided

    def verdict(self, d: int, a: int, b: int, prime_budget: int) -> SieveVerdict | None:
        """certify_specialization(specialize(fam, a/b, d), prime_budget) for
        coprime a and b > 0, or None where the table cannot decide it.  An
        exact check that g(a/b)/D is a nonzero rational square proves
        g(u0) != 0; a good prime proves that u0 is not a pole, as a form
        that is nonzero mod p is nonzero."""
        num, den = self.fam.g._at(a, b)
        square = num * den * d  # g(a/b)/D = num/(den*D)
        if square <= 0 or math.isqrt(square) ** 2 != square:
            return None
        try:
            return _sieve_rows(self._reductions_at(d, a, b, prime_budget), len(self.fam.points))
        except _Undecided:
            return None


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


def _check(name: str, witness: dict, status: str = "pass") -> dict:
    """One certificate check as printed; status is "pass" or "inconclusive"."""
    return {"name": name, "status": status, "witness": witness}


def structural_checks(fam: TwistFamily) -> list[dict]:
    """The structural checks of a certificate, in certificate order, all
    decided by one validate_family pass.  The first failure raises
    CertifyError naming it; a claimed rank is left to the proved rank."""
    indices = range(1, len(fam.points) + 1)
    infinite_order = "nonconstant x implies infinite order"
    checks = (
        [_check(f"on-curve[{i}]", {"point": i}) for i in indices]
        + [_check(f"nonconstant-x[{i}]", {"point": i, "reason": infinite_order}) for i in indices]
        + [_check(name, {}) for name in ("g-squarefree", "g-nonconstant")]
    )
    failures = validate_family(fam)
    for check in checks:
        if check["name"] in failures:
            raise CertifyError(check["name"])
    if "g-degree" in failures:
        raise CertifyError("g-degree")
    return checks


def certify_family(
    fam: TwistFamily,
    samples: int = DEFAULT_SAMPLES,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> dict:
    """The rank certificate as the JSON dict it prints: family, params,
    checks, certified_lower and genus_upper.

    Every check runs in order; structural failures abort with the failing
    check named, independence failures only lower the result."""
    if samples < 1 or prime_budget < 1:
        raise ValueError(f"samples and prime_budget must be positive, got {samples} and {prime_budget}")
    r = len(fam.points)
    checks = structural_checks(fam)
    genus = genus_upper_bound(fam.g)
    certified = 1 if r >= 1 else 0

    if r == 1:
        checks.append(_check("independence", {"strategy": "single nonconstant point"}))
    if r == 2:
        classes = automorphism_classification(fam)
        if classes is not None and sorted(classes) == ["fixed", "negated"]:
            certified = 2
            checks.append(_check("independence", {"strategy": "u->-u eigensplit", "classes": classes}))
    if r >= 2 and certified < r:
        witnesses = []
        # u0 = 2, 3, ...; skip roots of g, poles, and points with y = 0 (2-torsion)
        for u0 in count(2):
            try:
                spec = specialize(fam, u0)
            except CertifyError:
                continue
            if any(pt.y == 0 for pt in spec.points):
                continue
            verdict = certify_specialization(spec, prime_budget)
            witnesses.append({"u0": rat_to_str(spec.u0), "d": spec.d, **verdict.to_json()})
            certified = max(certified, verdict.rank)
            if verdict.independent or len(witnesses) == samples:
                break
        witness = {"strategy": "specialization + mod-ell reduction", "specializations": witnesses}
        checks.append(_check("independence", witness, "pass" if certified == r else "inconclusive"))

    if certified > genus:
        raise CertifyError("genus-bound", "certified rank exceeded the genus bound (internal error)")
    checks.append(_check("genus-bound", {"genus_upper": genus, "certified_lower": certified}))
    prov = fam.provenance
    return {
        "family": prov.get("family", "?"),
        "params": prov.get("params", {}),
        "checks": checks,
        "certified_lower": certified,
        "genus_upper": genus,
    }
