"""Empirical counting of distinct squarefree twists hit by a family.

Given the twist polynomial g, the binary form F(a, b) = b^(2k) g(a/b) with
k = floor((deg g + 1)/2) is evaluated over a coprime integer grid; the set S
collects the squarefree parts D = F(a,b)/v^2, and |S(x)| = #{D in S : |D| < x}
is fitted against x^(1/k) on a log-log grid.  The D come from a line sieve
over the factor forms of F (`sieved_values`).  Optionally every counted D is
certified at u0 = a/b by the mod-ell reduction certificate of `certify`,
read from the family's residue table, or from the specialization at u0 where
the table cannot decide.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from math import gcd, isqrt

from .certify import (
    DEFAULT_PRIME_BUDGET,
    CertifyError,
    ResidueTable,
    certify_specialization,
    specialize,
    structural_checks,
)
from .exactmath import (
    ONE,
    CheckError,
    RatFunc,
    Record,
    UniPoly,
    _sieve,
    eval_form,
    factorize,
    rat_to_str,
    square_class,
    squarefree_part_int,
)
from .jsonio import poly_from_json
from .twistforge import TwistFamily


class DensityError(CheckError, ValueError):
    pass


def _to_int_poly(p: UniPoly) -> list[int]:
    """The coefficients of p times the rational square that makes them
    integers with squarefree content, so that values keep their square
    classes."""
    c, prim = p.content_and_primitive()
    s = squarefree_part_int(c.numerator * c.denominator)
    return [s * int(v) for v in prim.coeffs]


class HomogForm(Record):
    """Integer realization of (a, b) -> b^(2k) g(a/b), with the binary forms
    whose values multiply to F(a, b) times a constant rational square.

    Each factor is c_0..c_d for sum_i c_i a^i b^(d - i), its degree d taken
    from its length, so c_d may be 0.  They are the integer forms of a
    recorded factor split of g, with the form b added when deg g is odd, or
    else F alone.
    """

    __slots__ = ("k", "coeffs", "factor_coeffs")

    def __init__(self, k: int, coeffs: tuple[int, ...], factor_coeffs: tuple[tuple[int, ...], ...]):
        self.k = k
        self.coeffs = coeffs
        self.factor_coeffs = factor_coeffs

    @property
    def degree(self) -> int:
        return 2 * self.k

    def max_abs_bound(self, grid: int) -> int:
        return sum(abs(c) for c in self.coeffs) * grid ** self.degree

    def squarefree_value(self, a: int, b: int) -> int | None:
        """Squarefree part of F(a, b), or None when F(a, b) = 0, from the
        factorization of every factor value."""
        values = [eval_form(fc, a, b, len(fc) - 1) for fc in self.factor_coeffs]
        if 0 in values:
            return None
        sign = -1 if sum(v < 0 for v in values) % 2 else 1
        return sign * _squarefree_product(values)


def _squarefree_product(values) -> int:
    """Squarefree part of |product of values|, by factoring each value."""
    odd_primes: set[int] = set()
    for v in values:
        for p, e in factorize(v).items():
            if e & 1:
                odd_primes ^= {p}
    return math.prod(odd_primes)


def homog_form(g: UniPoly, factor_polys=None) -> HomogForm:
    """Build the integer binary form for g.  A supplied factor split, given
    as in a family's provenance by coefficient strings, is used when the
    product of its factors is g times a constant rational square; otherwise F
    itself is the one factor.  A malformed split raises ValueError."""
    if g.is_constant():
        raise DensityError("density counting needs a nonconstant g")
    k = (g.degree + 1) // 2
    coeffs = tuple(_to_int_poly(g))
    factor_coeffs = (coeffs + (0,) * (2 * k - g.degree),)
    if factor_polys:
        try:
            fps = [poly_from_json(fp) for fp in factor_polys]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"provenance field 'factor_polys' is malformed: {exc}") from None
        if not all(fps):
            raise ValueError("provenance field 'factor_polys' has a zero factor")
        kk, sigma = square_class(RatFunc(math.prod(fps, start=ONE)) / RatFunc(g))
        if kk == ONE and sigma.is_constant():
            factor_coeffs = tuple(tuple(_to_int_poly(fp)) for fp in fps if fp != ONE)
            if g.degree % 2:
                factor_coeffs += ((1, 0),)  # the form b
    return HomogForm(k, coeffs, factor_coeffs)


class DensityReport(Record):
    """The distinct squarefree D counted below each x of `x_grid`, with
    `witnesses` D -> (a, b).  `certified_density` adds `certified_counts`
    and `certifications` D -> witness record; `with_fit` adds the fit."""

    __slots__ = (
        "family", "grid", "modulus", "x_grid", "counts", "witnesses", "certified_counts", "certifications", "fit"
    )

    def __init__(
        self,
        family: str,
        grid: int,
        modulus: int,
        x_grid: tuple[int, ...],
        counts: tuple[int, ...],
        witnesses: dict,
        certified_counts: tuple[int, ...] | None = None,
        certifications: dict | None = None,
        fit: tuple[float, float, float] | None = None,
    ):
        self.family = family
        self.grid = grid
        self.modulus = modulus
        self.x_grid = x_grid
        self.counts = counts
        self.witnesses = witnesses
        self.certified_counts = certified_counts
        self.certifications = certifications
        self.fit = fit

    def to_json(self, include_witnesses: bool = True) -> dict:
        out = {
            "family": self.family,
            "grid": self.grid,
            "modulus": self.modulus,
            "x_grid": list(self.x_grid),
            "counts": list(self.counts),
            "pairs": [[x, c] for x, c in zip(self.x_grid, self.counts)],
        }
        if self.certified_counts is not None:
            out["certified_counts"] = list(self.certified_counts)
        if self.fit is not None:
            out["fit"] = {"slope": self.fit[0], "intercept": self.fit[1], "residual": self.fit[2]}
        if include_witnesses:
            out["witnesses"] = {str(d): list(ab) for d, ab in sorted(self.witnesses.items())}
            if self.certifications is not None:
                out["certifications"] = {str(d): rec for d, rec in sorted(self.certifications.items())}
        return out


def _default_x_grid(x_max: int | None, cap: int) -> tuple[int, ...]:
    top = cap if x_max is None else min(x_max, cap)
    xs = []
    x = 1000
    while x <= top:
        xs.append(x)
        x *= 10
    if not xs:
        xs = [top]
    return tuple(xs)


# The sieve primes stop at the least B with B^3 above every factor value on
# the grid, and at _SIEVE_BOUND_CAP.  A value stripped of the primes up to B
# then leaves a cofactor c < B^3 whose primes all exceed B: c is 1, q, q^2 or
# q*r, so c is either a square or squarefree, and one isqrt tells which.
# Past the cap, a cofactor can reach B^3 and is factored instead.
_SIEVE_BOUND_CAP = 8192


def _sieve_bound(factors, grid: int) -> int:
    largest = max(sum(abs(c) for c in fc) * grid ** (len(fc) - 1) for fc in factors)
    bound = 2
    while bound < _SIEVE_BOUND_CAP and bound ** 3 <= largest:
        bound += 1
    return bound


def _root_table(fc, primes) -> list[tuple[int, list[int], bool]]:
    """(p, roots of f(x, 1) mod p, whether p divides the leading coefficient)
    for each prime p that divides some value of the form f.

    Each residue mod p has one representative x in [0, p), so f(x, 1) is
    evaluated once for each x below the largest prime, and x is a root mod
    each prime above x that divides the value.  Those primes divide
    gcd(f(x, 1), P), with P the product of the primes above x: the gcd is
    mostly 1 or one prime, and is trial-divided only when it is composite,
    at an integer root (gcd(0, P) = P) or where two primes divide the value."""
    deg = len(fc) - 1
    roots = {p: [] for p in primes}
    above = math.prod(primes)  # the product of primes[i:], the primes above x
    i = 0
    for x in range(primes[-1]):
        while primes[i] <= x:
            above //= primes[i]
            i += 1
        g = gcd(eval_form(fc, x, 1, deg), above)
        if g in roots:
            roots[g].append(x)
        elif g > 1:
            for p in primes[i:]:
                if g % p == 0:
                    roots[p].append(x)
    table = []
    for p in primes:
        lead = fc[-1] % p == 0
        if roots[p] or lead:
            table.append((p, roots[p], lead))
    return table


def _sieve_row(fc, small, large, b: int, row: list[int], grid: int, square_free: list[int]) -> list[int]:
    """|f(a, b)| for each a of the row with its primes from the root table
    removed, indexed by a and 0 elsewhere; the sign and the primes of odd
    exponent are toggled into square_free[a].

    small holds the table's entries with p <= grid, and large its pairs
    (p, r) with p > grid: such a p never divides b, and its root r hits the
    row at most once, at a = r*b mod p."""
    deg = len(fc) - 1
    row_coeffs = [c * b ** (deg - i) for i, c in enumerate(fc)][::-1]
    values = [0] * (grid + 1)
    for a in row:
        v = 0
        for c in row_coeffs:
            v = v * a + c
        if v < 0:
            square_free[a] = -square_free[a]
            v = -v
        values[a] = v
    hits = []
    for p, roots, lead in small:
        if b % p:
            hits += [(a, p) for r in roots for a in range(r * b % p or p, grid + 1, p)]
        elif lead:
            hits += [(a, p) for a in row]
    hits += [(a, p) for p, r in large if (a := r * b % p) <= grid]
    for a, p in hits:
        v = values[a]
        if not v:  # off the row (a = 0 included), or a zero of f
            continue
        v //= p
        odd = True
        while not v % p:
            v //= p
            odd = not odd
        values[a] = v
        if odd:
            s = square_free[a]
            square_free[a] = s // p if s % p == 0 else s * p
    return values


def _constant_start(factors, bound: int) -> tuple[int, tuple]:
    """(s, the nonconstant factors), s the signed squarefree part of the
    constant factors, which starts every D, when its primes are sieve
    primes, at most bound; otherwise (1, factors)."""
    c = math.prod(fc[0] for fc in factors if len(fc) == 1)
    if max(factorize(c), default=1) > bound:
        return 1, factors
    return squarefree_part_int(c), tuple(fc for fc in factors if len(fc) > 1)


def sieved_values(form: HomogForm, grid: int, modulus: int = 1):
    """Yield (a, b, D) for every coprime pair a, b in [1, grid] with
    a = b = 1 (mod modulus), row by row in b, with D the squarefree part of
    F(a, b), or None where F(a, b) = 0.

    Each factor f of the form is line-sieved: for p up to the bound B, p
    divides f(a, b) exactly when a = r*b (mod p) for a root r of f(x, 1) mod
    p, or, when p | b, when p divides the leading coefficient.  The hits
    shed their full power of p, and its parity is kept across the factors.
    The cofactors of a pair are factored after all when one reaches B^3 or
    two of them share a prime.
    """
    factors = form.factor_coeffs
    bound = _sieve_bound(factors, grid)
    cube = bound ** 3
    primes = _sieve(bound)
    start, factors = _constant_start(factors, bound)
    tables = []
    for fc in factors:
        table = _root_table(fc, primes)
        small = [entry for entry in table if entry[0] <= grid]
        large = [(p, r) for p, roots, _ in table if p > grid for r in roots]
        tables.append((small, large))
    for b in range(1, grid + 1, modulus):
        row = [a for a in range(1, grid + 1, modulus) if gcd(a, b) == 1]
        square_free = [0] * (grid + 1)
        for a in row:
            square_free[a] = start
        cofactors = [
            _sieve_row(fc, small, large, b, row, grid, square_free) for fc, (small, large) in zip(factors, tables)
        ]
        for a in row:
            rough = [values[a] for values in cofactors]
            if 0 in rough:
                yield a, b, None
                continue
            d = square_free[a]
            seen = 1
            for c in rough:
                if c >= cube or gcd(seen, c) != 1:
                    d = square_free[a] * _squarefree_product(rough)
                    break
                seen *= c
                root = isqrt(c)
                if root * root != c:
                    d *= c
            yield a, b, d


def enumerate_S(
    form: HomogForm,
    grid: int,
    modulus: int = 1,
    x_max: int | None = None,
    family: str = "",
) -> DensityReport:
    """Collect squarefree parts over the coprime grid a, b in [1, grid] with
    a = b = 1 (mod modulus), deduplicated with the lexicographically smallest
    (a + b, a) witness; x_max = None keeps every value."""
    if grid < 1 or modulus < 1 or (x_max is not None and x_max < 1):
        raise DensityError("grid, modulus, x_max must be positive")
    witnesses: dict[int, tuple[int, int]] = {}
    for a, b, d in sieved_values(form, grid, modulus):
        if d is None or (x_max is not None and abs(d) >= x_max):
            continue
        if d not in witnesses or (a + b, a) < (witnesses[d][0] + witnesses[d][1], witnesses[d][0]):
            witnesses[d] = (a, b)
    x_grid = _default_x_grid(x_max, form.max_abs_bound(grid))
    magnitudes = sorted(abs(d) for d in witnesses)
    counts = tuple(bisect_left(magnitudes, x) for x in x_grid)
    return DensityReport(
        family=family,
        grid=grid,
        modulus=modulus,
        x_grid=x_grid,
        counts=counts,
        witnesses=witnesses,
    )


def fit_exponent(report: DensityReport) -> tuple[float, float, float]:
    """Least-squares slope of log|S(x)| against log x (needs >= 5 usable points)."""
    pts = [(math.log(x), math.log(c)) for x, c in zip(report.x_grid, report.counts) if c > 0]
    if len(pts) < 5:
        raise DensityError("fit_exponent needs at least 5 x-grid points with nonzero counts")
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    residual = math.sqrt(sum((y - slope * x - intercept) ** 2 for x, y in pts) / n)
    return slope, intercept, residual


def with_fit(report: DensityReport) -> DensityReport:
    r = report
    return DensityReport(
        r.family, r.grid, r.modulus, r.x_grid, r.counts, r.witnesses, r.certified_counts, r.certifications,
        fit_exponent(r),
    )


def _certify_one(table: ResidueTable, prime_budget: int, d: int, a: int, b: int):
    u0 = Fraction(a, b)
    verdict = table.verdict(d, a, b, prime_budget)
    if verdict is None:  # the table cannot decide this D
        try:
            spec = specialize(table.fam, u0, d)
        except CertifyError as exc:
            return d, {"u0": rat_to_str(u0), "certified": False, "reason": str(exc)}
        verdict = certify_specialization(spec, prime_budget)
    rec = {"u0": rat_to_str(u0), "certified": verdict.rank >= table.fam.claimed_rank, **verdict.to_json()}
    return d, rec


def certified_density(
    fam: TwistFamily,
    report: DensityReport,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
) -> DensityReport:
    """Attach an independence verdict to every counted D, certified when
    the proved rank reaches the family's claimed rank.  Every D is
    certified in the calling process from one residue table of the family.
    The family's structural checks run first, once, and prove every
    specialized point on its curve.  A D whose u0 hits a root of g or a
    pole of a point, or whose g(u0)/D is not a square, is recorded as not
    certified; a CertifyError of the sieve, such as a wrong point count,
    aborts."""
    if prime_budget < 1:
        raise ValueError(f"prime_budget must be positive, got {prime_budget}")
    structural_checks(fam)
    table = ResidueTable(fam)
    records = dict(_certify_one(table, prime_budget, d, a, b) for d, (a, b) in sorted(report.witnesses.items()))
    certified_mags = sorted(abs(d) for d, rec in records.items() if rec["certified"])
    certified_counts = tuple(bisect_left(certified_mags, x) for x in report.x_grid)
    r = report
    return DensityReport(
        r.family, r.grid, r.modulus, r.x_grid, r.counts, r.witnesses, certified_counts, records, r.fit
    )
