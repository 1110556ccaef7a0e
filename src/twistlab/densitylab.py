"""Empirical counting of distinct squarefree twists hit by a family.

Given the twist polynomial g, the binary form F(a, b) = b^(2k) g(a/b) with
k = floor((deg g + 1)/2) is evaluated over a coprime integer grid; the set S
collects the squarefree parts D = F(a,b)/v^2, and |S(x)| = #{D in S : |D| < x}
is fitted against x^(1/k) on a log-log grid.  Optionally every counted D is
certified by specializing the family at u0 = a/b and proving its points
independent by the mod-ell reduction certificate of `certify`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .certify import (
    DEFAULT_PRIME_BUDGET,
    CertifyError,
    good_primes,
    mod_p_relation_sieve,
    specialize,
)
from .exactmath import ONE, RatFunc, UniPoly, factorize, rat_to_str, square_class, squarefree_part_int
from .twistforge import TwistFamily


class DensityError(ValueError):
    pass


def _to_int_poly(p: UniPoly) -> list[int]:
    """Scale by the square of the denominator lcm and drop square content,
    preserving value square classes while making every coefficient integral."""
    den_lcm = 1
    for c in p.coeffs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [c.numerator * (den_lcm * den_lcm // c.denominator) for c in p.coeffs]
    content = 0
    for v in ints:
        content = gcd(content, v)
    if content:
        square_part = content // abs(squarefree_part_int(content))
        if square_part > 1:
            ints = [v // square_part for v in ints]
    return ints


def _eval_homog(coeffs: list[int], a: int, b: int, degree: int) -> int:
    """sum_i c_i a^i b^(degree - i) by Horner, exactly over the integers."""
    acc = 0
    bp = 1
    for i in range(len(coeffs) - 1, -1, -1):
        acc = acc * a + coeffs[i] * bp
        bp *= b
    return acc * b ** (degree - (len(coeffs) - 1))


@dataclass(frozen=True)
class HomogForm:
    """Integer realization of (a, b) -> b^(2k) g(a/b), with optional factor
    polynomials used to split the factorization work."""

    g: UniPoly
    k: int
    coeffs: tuple[int, ...]
    factor_coeffs: tuple[tuple[int, ...], ...]
    sigma_num: tuple[int, ...]
    sigma_den: tuple[int, ...]
    sigma_degs: tuple[int, int]

    @property
    def degree(self) -> int:
        return 2 * self.k

    def max_abs_bound(self, grid: int) -> int:
        return sum(abs(c) for c in self.coeffs) * grid ** self.degree

    def evaluate(self, a: int, b: int) -> int:
        return _eval_homog(list(self.coeffs), a, b, self.degree)

    def squarefree_value(self, a: int, b: int) -> int | None:
        """Squarefree part of F(a, b), or None when F(a, b) = 0.

        Uses the recorded factor split when its square-class correction is
        defined and nonzero at (a, b); otherwise factors F directly.
        """
        if self.factor_coeffs:
            sn = _eval_homog(list(self.sigma_num), a, b, self.sigma_degs[0])
            sd = _eval_homog(list(self.sigma_den), a, b, self.sigma_degs[1])
            if sn != 0 and sd != 0:
                total_deg = 0
                sign = 1
                odd_primes: set[int] = set()
                values = []
                for fc in self.factor_coeffs:
                    deg = len(fc) - 1
                    total_deg += deg
                    v = _eval_homog(list(fc), a, b, deg)
                    if v == 0:
                        return None
                    values.append(v)
                if (self.degree - total_deg) % 2 == 1:
                    values.append(b)
                for v in values:
                    if v < 0:
                        sign = -sign
                    for p, e in factorize(v).items():
                        if e & 1:
                            odd_primes ^= {p}
                d = sign
                for p in odd_primes:
                    d *= p
                return d
        v = self.evaluate(a, b)
        if v == 0:
            return None
        return squarefree_part_int(v)


def homog_form(g: UniPoly, factor_polys=None) -> HomogForm:
    """Build the integer binary form for g, validating any supplied factor split."""
    if g.is_constant():
        raise DensityError("density counting needs a nonconstant g")
    k = (g.degree + 1) // 2
    coeffs = tuple(_to_int_poly(g))
    factor_coeffs: tuple = ()
    sigma_num: tuple = (1,)
    sigma_den: tuple = (1,)
    sigma_degs = (0, 0)
    if factor_polys:
        fps = [UniPoly([Fraction(c) for c in fp]) for fp in factor_polys]
        product = ONE
        for fp in fps:
            product = product * fp
        kk, sigma = square_class(RatFunc(product) / RatFunc(g))
        if kk == ONE:
            factor_coeffs = tuple(tuple(_to_int_poly(fp)) for fp in fps if fp != ONE)
            sigma_num = tuple(_to_int_poly(sigma.num))
            sigma_den = tuple(_to_int_poly(sigma.den))
            sigma_degs = (sigma.num.degree, sigma.den.degree)
    return HomogForm(g, k, coeffs, factor_coeffs, sigma_num, sigma_den, sigma_degs)


@dataclass(frozen=True)
class DensityReport:
    family: str
    grid: int
    modulus: int
    x_grid: tuple[int, ...]
    counts: tuple[int, ...]
    witnesses: dict  # D -> (a, b)
    certified_counts: tuple[int, ...] | None = None
    certifications: dict | None = None  # D -> witness record
    fit: tuple[float, float, float] | None = None

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


def enumerate_S(
    form: HomogForm,
    grid: int,
    modulus: int = 1,
    x_max: int | None = 10 ** 6,
    family: str = "",
    x_grid: tuple[int, ...] | None = None,
) -> DensityReport:
    """Collect squarefree parts over the coprime grid a, b in [1, grid] with
    a = b = 1 (mod modulus), deduplicated with the lexicographically smallest
    (a + b, a) witness; x_max = None keeps every value."""
    if grid < 1 or modulus < 1 or (x_max is not None and x_max < 1):
        raise DensityError("grid, modulus, x_max must be positive")
    witnesses: dict[int, tuple[int, int]] = {}
    for a in range(1, grid + 1):
        if modulus > 1 and a % modulus != 1 % modulus:
            continue
        for b in range(1, grid + 1):
            if modulus > 1 and b % modulus != 1 % modulus:
                continue
            if gcd(a, b) != 1:
                continue
            d = form.squarefree_value(a, b)
            if d is None or (x_max is not None and abs(d) >= x_max):
                continue
            if d not in witnesses or (a + b, a) < (witnesses[d][0] + witnesses[d][1], witnesses[d][0]):
                witnesses[d] = (a, b)
    if x_grid is None:
        x_grid = _default_x_grid(x_max, form.max_abs_bound(grid))
    magnitudes = sorted(abs(d) for d in witnesses)
    counts = tuple(bisect_left(magnitudes, x) for x in x_grid)
    return DensityReport(
        family=family,
        grid=grid,
        modulus=modulus,
        x_grid=tuple(x_grid),
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
    return replace(report, fit=fit_exponent(report))


def _certify_one(args):
    fam, d, a, b, prime_budget = args
    u0 = Fraction(a, b)
    try:
        spec = specialize(fam, u0)
    except CertifyError as exc:
        return d, {"u0": rat_to_str(u0), "certified": False, "reason": str(exc)}
    if spec.d != d:
        return d, {"u0": rat_to_str(u0), "certified": False, "reason": "witness mismatch"}
    verdict = mod_p_relation_sieve(spec.points, spec.d, fam.base.f, good_primes(spec, prime_budget))
    rec = {"u0": rat_to_str(u0), "certified": verdict.independent, **verdict.to_json()}
    return d, rec


def certified_density(
    fam: TwistFamily,
    report: DensityReport,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
    threads: int = 1,
) -> DensityReport:
    """Attach an independence verdict to every counted D; failures lower the
    certified count but never abort."""
    if prime_budget < 1:
        raise ValueError(f"prime_budget must be positive, got {prime_budget}")
    jobs = [(fam, d, a, b, prime_budget) for d, (a, b) in sorted(report.witnesses.items())]
    records: dict[int, dict] = {}
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            for d, rec in pool.map(_certify_one, jobs, chunksize=16):
                records[d] = rec
    else:
        for job in jobs:
            d, rec = _certify_one(job)
            records[d] = rec
    certified_mags = sorted(abs(d) for d, rec in records.items() if rec["certified"])
    certified_counts = tuple(bisect_left(certified_mags, x) for x in report.x_grid)
    return replace(report, certified_counts=certified_counts, certifications=records)
