"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and runtime caps are pinned here, not deferred.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import same_square_class, upoly
from twistlab.catalog import (
    CLAIMED_RANK,
    EXPECTED_DEGREE,
    FAMILY_IDS,
    FamilySpec,
    build,
    build_pipeline,
    crosscheck,
    rem4_6_tower,
    twist_identities,
)
from twistlab.certify import CertifyError, certify_family, genus_upper_bound
from twistlab.curves import CurvePoint
from twistlab.densitylab import certified_density, enumerate_S, homog_form, with_fit
from twistlab.exactmath import (
    ONE,
    RatFunc,
    UniPoly,
    compose,
    is_squarefree_int,
    square_class,
    squarefree_part_int,
)
from twistlab.twistforge import TwistFamily

F = Fraction


def _report(num: int, detail: str, t0: float):
    print(f"PASS criterion {num}: {detail} ({time.time() - t0:.2f}s)")


def test_criterion_1_symbolic_identity_suite():
    t0 = time.time()
    total = 0
    for fid in FAMILY_IDS:
        for tid in twist_identities(FamilySpec.make(fid)):
            assert compose(tid.f, tid.h) == RatFunc(tid.k * tid.f) * tid.j * tid.j
            total += 1
    # the displayed linear factors: lambda-family pair and the degree-12 pair
    lam = F(-2)
    k_41 = {tid.k for tid in twist_identities(FamilySpec.make("thm4_1"))}
    d1 = upoly(1, lam - 2) * (1 - lam)
    d2 = upoly(-lam * lam, 2 * lam - 1) * (lam * (1 - lam))
    assert any(same_square_class(k, d1) for k in k_41)
    assert any(same_square_class(k, d2) for k in k_41)
    k_45 = {tid.k for tid in twist_identities(FamilySpec.make("thm4_5"))}
    assert k_45 == {upoly(-2, -6), upoly(2, -6)}  # -(6t+2) and (-6t+2)
    elapsed = time.time() - t0
    assert elapsed < 10, f"identity suite took {elapsed:.1f}s"
    _report(1, f"{total} twist identities verified exactly", t0)


DISPLAY_G = {
    "cor3_2": [-128, 0, -80, 0, -20, 0, -2],
    "cor3_3": [-81, 0, -324, 0, 27, 0, -6],
    "mestre3_4": [-8, 0, -32, 0, -74, 0, -110, 0, -110, 0, -74, 0, -32, 0, -8],
    "thm4_1": [
        73728, -442368, 147456, -2433024, 7575552, -9068544, -35315712,
        22671360, 47347200, 38016000, 5760000, 43200000, 18000000,
    ],
    "thm4_3": [
        0, -75000, 437500, -1252000, 2343600, -3156480, 3222016,
        -2525184, 1499904, -641024, 179200, -24576,
    ],
    "thm4_5": [6, 0, 0, 0, -198, 0, 0, 0, -198, 0, 0, 0, 6],
    "rem4_6": [6, -198, -198, 6],
}

DISPLAYED_POINT_COUNT = {"cor3_2": 2, "cor3_3": 2, "thm4_1": 3, "thm4_5": 3}


def test_criterion_2_display_goldens():
    t0 = time.time()
    for fid, coeffs in DISPLAY_G.items():
        fam = build(FamilySpec.make(fid))
        assert list(fam.g.coeffs) == [F(c) for c in coeffs], fid
        assert fam.g.degree == EXPECTED_DEGREE[fid]
    for fid, npts in DISPLAYED_POINT_COUNT.items():
        fam = build(FamilySpec.make(fid))
        curve = fam.curve()
        assert len(fam.points) == npts
        for p in fam.points:
            assert curve.contains(p), (fid, p)
    elapsed = time.time() - t0
    assert elapsed < 10, f"display goldens took {elapsed:.1f}s"
    _report(2, "display polynomials coefficient-exact; displayed points on curve", t0)


def test_criterion_3_pipeline_display_crosscheck():
    t0 = time.time()
    for fid in FAMILY_IDS:
        spec = FamilySpec.make(fid)
        report = crosscheck(spec)
        assert report.ok, (fid, report.messages)
        quotient = RatFunc(build_pipeline(spec).g) / RatFunc(build(spec).g)
        k, _ = square_class(quotient)
        assert k == ONE
    elapsed = time.time() - t0
    assert elapsed < 30, f"crosscheck took {elapsed:.1f}s"
    _report(3, f"all {len(FAMILY_IDS)} families agree up to rational-function squares", t0)


def test_criterion_4_genus_rank_accounting():
    t0 = time.time()
    for fid in FAMILY_IDS:
        fam = build(FamilySpec.make(fid))
        cert = certify_family(fam)
        assert cert.genus_upper == (fam.g.degree - 1) // 2
        assert cert.certified_lower <= cert.genus_upper
        if fid == "cor3_2":
            assert cert.certified_lower == cert.genus_upper == 2
        if fid == "rem4_6":
            assert cert.certified_lower == cert.genus_upper == 1
    _report(4, "genus bounds hold; cor3_2 and rem4_6 pinned exactly", t0)


def test_criterion_5_rank3_certificates():
    t0 = time.time()
    for fid in ("thm4_1", "thm4_2a", "thm4_2b", "thm4_3", "thm4_5"):
        cert = certify_family(build(FamilySpec.make(fid)), samples=3, prime_budget=60)
        assert cert.certified_lower == 3, fid
        proof = next(c for c in cert.checks if c.name == "independence").witness["specializations"][-1]
        assert proof["verdict"] == "independent" and proof["rank"] == 3, fid
        assert len(proof["primes"]) == 3 and proof["torsion_prime"], fid
    elapsed = time.time() - t0
    assert elapsed < 120, f"rank-3 certificates took {elapsed:.1f}s"
    _report(5, "five families certify rank >= 3 at default budgets", t0)


def test_criterion_6_tower():
    t0 = time.time()
    fams = rem4_6_tower()
    lows = [certify_family(fam).certified_lower for fam in fams]
    assert lows == [1, 2, 3]
    assert genus_upper_bound(fams[0].g) == 1 == lows[0]  # rank-1 layer pinned by genus
    _report(6, "tower certifies lower bounds (1, 2, 3); base pinned by genus", t0)


def _trial_division_sf(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    d = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            d *= p
        p += 1
    return sign * d * n


@pytest.mark.slow
def test_criterion_7_density_exponents():
    t0 = time.time()
    rng = random.Random(0)
    bands = {"cor3_2": (0.23, 0.43, 3), "thm4_5": (0.06, 0.27, 6)}
    for fid, (lo, hi, k) in bands.items():
        fam = build(FamilySpec.make(fid))
        form = homog_form(fam.g, fam.provenance.get("factor_polys"))
        assert form.k == k
        report = with_fit(enumerate_S(form, grid=300, modulus=1, x_max=None, family=fid))
        slope = report.fit[0]
        assert lo <= slope <= hi, (fid, slope)
        assert list(report.counts) == sorted(report.counts)
        # every reported D re-verified squarefree by the factorization oracle
        for d in report.witnesses:
            assert is_squarefree_int(d), (fid, d)
        # independent recomputation for a sample: direct evaluation, no factor split
        sample = rng.sample(sorted(report.witnesses), 100)
        for d in sample:
            a, b = report.witnesses[d]
            assert squarefree_part_int(form.evaluate(a, b)) == d
    elapsed = time.time() - t0
    assert elapsed < 300, f"density exponents took {elapsed:.1f}s"
    _report(7, "grid-300 slopes inside the stated bands; all D squarefree", t0)


def test_criterion_8_certified_density_soundness():
    t0 = time.time()
    fam = build(FamilySpec.make("thm4_5"))
    form = homog_form(fam.g, fam.provenance.get("factor_polys"))
    report = enumerate_S(form, grid=50, modulus=1, x_max=None, family="thm4_5")
    certified = certified_density(fam, report)
    total = len(certified.witnesses)
    good = sum(1 for rec in certified.certifications.values() if rec["certified"])
    assert good / total > 0.9, f"certified fraction {good}/{total}"
    for d, rec in certified.certifications.items():
        a, b = certified.witnesses[d]
        assert rec["u0"] == str(F(a, b))
        if rec["certified"]:
            assert rec["primes"], d
            assert rec["torsion_prime"], d
            assert rec["verdict"] == "independent" and rec["rank"] == 3
    _report(8, f"certified fraction {good}/{total} with replayable witnesses", t0)


@pytest.mark.slow
def test_criterion_9_oracle_equivalence():
    t0 = time.time()
    # squarefree parts against a smallest-prime-factor sieve on all |n| <= 10^6
    limit = 10 ** 6
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1

    def sieve_sf(n: int) -> int:
        sign = -1 if n < 0 else 1
        n = abs(n)
        d = 1
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                d *= p
        return sign * d

    for n in range(1, limit + 1):
        expected = sieve_sf(n)
        assert squarefree_part_int(n) == expected
        assert squarefree_part_int(-n) == -expected
    from math import isqrt

    rng = random.Random(1)
    for _ in range(10 ** 4):
        n = rng.getrandbits(64) | 1
        d = squarefree_part_int(n)
        v2 = n // d
        assert d * v2 == n and is_squarefree_int(d)
        r = isqrt(v2)
        assert r * r == v2
    # square-class re-expansion on 10^4 random rational functions of degree <= 12
    for _ in range(10 ** 4):
        num = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        den = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        sq = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        if num.is_zero() or den.is_zero() or sq.is_zero():
            continue
        r = RatFunc(num * sq * sq, den)
        k, j = square_class(r)
        assert RatFunc(k) * j * j == r
        assert k.is_squarefree()
    _report(9, "squarefree parts match the sieve oracle; square classes re-expand", t0)


def _tamper_poly(p: UniPoly, index: int) -> UniPoly:
    coeffs = list(p.coeffs)
    coeffs[index] += 1
    return UniPoly(coeffs)


def _expect_named_failure(fam: TwistFamily) -> str:
    try:
        certify_family(fam, samples=1, prime_budget=5)
    except CertifyError as err:
        return err.check_name
    report_fam = fam.provenance.get("family")
    raise AssertionError(f"tampered family {report_fam} was certified")


def test_criterion_10_tamper_suite():
    t0 = time.time()
    tampered = 0
    for fid in FAMILY_IDS:
        fam = build(FamilySpec.make(fid))
        for i in range(len(fam.g.coeffs)):
            broken = TwistFamily(fam.base, _tamper_poly(fam.g, i), fam.points, fam.claimed_rank, fam.provenance)
            name = _expect_named_failure(broken)
            assert name, (fid, "g", i)
            tampered += 1
        for pi, point in enumerate(fam.points):
            for part in ("x.num", "x.den", "y.num", "y.den"):
                holder, attr = part.split(".")
                rf = getattr(point, holder)
                poly = getattr(rf, attr)
                for ci in range(len(poly.coeffs)):
                    new_poly = _tamper_poly(poly, ci)
                    num, den = (new_poly, rf.den) if attr == "num" else (rf.num, new_poly)
                    if den.is_zero():
                        continue
                    new_rf = RatFunc(num, den)
                    new_pt = (
                        CurvePoint(new_rf, point.y) if holder == "x" else CurvePoint(point.x, new_rf)
                    )
                    pts = list(fam.points)
                    pts[pi] = new_pt
                    broken = TwistFamily(fam.base, fam.g, tuple(pts), fam.claimed_rank, fam.provenance)
                    name = _expect_named_failure(broken)
                    assert name.startswith("on-curve") or name.startswith("nonconstant"), (fid, part, ci, name)
                    tampered += 1
    _report(10, f"{tampered} single-coefficient perturbations all rejected by name", t0)
