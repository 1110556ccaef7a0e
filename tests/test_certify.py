"""Rank certificates: eigensplit, specialization, and the mod-ell reduction proof."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import upoly
from twistlab import catalog, certify
from twistlab.catalog import FamilySpec, build, crosscheck, rem4_6_tower
from twistlab.certify import (
    BadPrimeError,
    CertifyError,
    RankCertificate,
    SpecializedTwist,
    _count_points,
    _ModCurve,
    automorphism_classification,
    certify_family,
    genus_upper_bound,
    good_primes,
    mod_p_relation_sieve,
    specialize,
)
from twistlab.curves import CubicCurve, CurvePoint, TwistedCurve
from twistlab.exactmath import T, compose, discriminant_cubic
from twistlab.twistforge import TwistFamily

F = Fraction


def test_genus_upper_bound_values():
    assert genus_upper_bound(upoly(*([0] * 6 + [1]))) == 2
    assert genus_upper_bound(upoly(*([0] * 12 + [1]))) == 5
    assert genus_upper_bound(upoly(*([0] * 11 + [1]))) == 5
    assert genus_upper_bound(upoly(*([0] * 3 + [1]))) == 1


def test_automorphism_eigensplit_matches_proof():
    # the degree-6 family's proof: the first point is fixed by u -> -u,
    # the second is sent to its inverse
    fam = build(FamilySpec.make("cor3_2"))
    assert automorphism_classification(fam) == ["fixed", "negated"]


def test_automorphism_on_swapped_pair():
    # the degree-6 tower layer has its two points exchanged by u -> -u
    _, fam2, _ = rem4_6_tower()
    assert automorphism_classification(fam2) == ["moved", "moved"]


def test_automorphism_needs_even_g():
    fam = build(FamilySpec.make("rem4_6"))
    assert automorphism_classification(fam) is None


def test_specialize_degree12_family():
    fam = build(FamilySpec.make("thm4_5"))
    spec = specialize(fam, 2)
    assert spec.d == -29274
    curve = spec.curve()
    assert len(spec.points) == 3
    for p in spec.points:
        assert curve.contains(p)


def test_specialize_clears_square_part():
    fam = build(FamilySpec.make("thm4_5"))
    # g(1/2) has denominator 2^12, a perfect square to absorb
    spec = specialize(fam, F(1, 2))
    assert spec.d == -29274  # reciprocal symmetry of the palindromic g
    assert spec.curve().contains(spec.points[0])


def test_specialize_rejects_root_of_g():
    fam = build(FamilySpec.make("rem4_6"))
    with pytest.raises(CertifyError, match="root of g"):
        specialize(fam, -1)  # g = 6(u+1)(u^2 - 34u + 1)


def test_specialize_rejects_pole():
    fam = build(FamilySpec.make("thm4_5"))
    with pytest.raises(CertifyError, match="pole"):
        specialize(fam, 0)  # third point has a pole at u = 0
    with pytest.raises(CertifyError, match="pole"):
        specialize(fam, 1)  # second point has a pole at u = 1


def _spec_points():
    fam = build(FamilySpec.make("thm4_5"))
    return fam, specialize(fam, 2)


def test_sieve_certifies_independent_triple():
    fam, spec = _spec_points()
    verdict = mod_p_relation_sieve(spec.points, spec.d, fam.base.f, good_primes(spec, 20))
    assert verdict.independent and verdict.rank == 3
    assert len(verdict.primes_used) == 3 and verdict.torsion_prime is not None
    assert verdict.to_json()["verdict"] == "independent"


def test_sieve_detects_planted_relation():
    fam, spec = _spec_points()
    curve = spec.curve()
    p = spec.points[0]
    doubled = curve.multiply(2, p)
    verdict = mod_p_relation_sieve((p, doubled), spec.d, fam.base.f, good_primes(spec, 60))
    assert not verdict.independent and verdict.rank <= 1
    assert verdict.to_json()["verdict"] == "not-proved"


def test_sieve_proves_p_and_3q_at_ell_other_than_3():
    # every row at ell = 3 vanishes on 3Q, so only ell = 5 or 7 can prove the pair
    fam, spec = _spec_points()
    pts = (spec.points[0], spec.curve().multiply(3, spec.points[1]))
    primes = good_primes(SpecializedTwist(spec.u0, spec.d, spec.base, pts), 60)
    verdict = mod_p_relation_sieve(pts, spec.d, fam.base.f, primes)
    assert verdict.independent and verdict.rank == 2
    assert verdict.ell != 3


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3))
def test_sieve_never_passes_dependent_inputs(m, n):
    fam, spec = _spec_points()
    curve = spec.curve()
    p = spec.points[0]
    q = curve.multiply(m, p)
    r = curve.multiply(n, spec.points[1])
    primes = good_primes(SpecializedTwist(spec.u0, spec.d, spec.base, (p, q, r)), 60)
    verdict = mod_p_relation_sieve((p, q, r), spec.d, fam.base.f, primes)
    assert not verdict.independent and verdict.rank <= 2


def test_sieve_never_proves_a_torsion_point():
    # (0, 1) has order 3 on y^2 = x^3 + 1, so 3 divides every #E(F_p): no
    # prime shows E(Q)[3] = 0, and at ell = 5, 7 the point's rows vanish
    base = CubicCurve(upoly(1, 0, 0, 1))
    pt = CurvePoint(F(0), F(1))
    primes = good_primes(SpecializedTwist(F(0), 1, base, (pt,)), 30)
    verdict = mod_p_relation_sieve((pt,), 1, base.f, primes)
    assert not verdict.independent and verdict.rank == 0
    assert verdict.to_json()["verdict"] == "not-proved"


def test_sieve_empty_points_trivially_independent():
    fam, spec = _spec_points()
    verdict = mod_p_relation_sieve((), spec.d, fam.base.f, [53])
    assert verdict.independent and verdict.rank == 0


def test_sieve_rejects_bad_prime():
    fam, spec = _spec_points()
    assert spec.d % 17 == 0
    # a prime at most max(ELLS), a prime dividing d, a composite
    for primes in ([3], [17], [15]):
        with pytest.raises(BadPrimeError):
            mod_p_relation_sieve(spec.points, spec.d, fam.base.f, primes)


def test_sieve_rejects_off_curve_point():
    fam, spec = _spec_points()
    fake = CurvePoint(spec.points[0].x + 1, spec.points[0].y)
    with pytest.raises(CertifyError) as err:
        mod_p_relation_sieve((fake,), spec.d, fam.base.f, [53])
    assert err.value.check_name == "sieve-input"


def test_count_points_matches_brute_force():
    fam, spec = _spec_points()
    for d in (spec.d, 1, -1, 5, 77):
        for p in (11, 13, 19, 23, 29, 53, 97):
            if d % p == 0:
                continue
            mc = _ModCurve(p, d, fam.base.f)
            brute = 1 + sum(1 for x in range(p) for y in range(p) if (mc.d * y * y - mc.f_at(x)) % p == 0)
            assert _count_points(mc) == brute, (d, p)


def test_good_primes_deterministic_and_floor():
    fam, spec = _spec_points()
    a = good_primes(spec, 25)
    assert a == good_primes(spec, 25) and len(a) == 25
    assert a == sorted(a) and all(p > 7 for p in a)
    disc = discriminant_cubic(fam.base.f)
    bad = 2 * spec.d * disc.numerator * disc.denominator
    for pt in spec.points:
        bad *= pt.x.denominator * pt.y.denominator
    assert all(bad % p != 0 for p in a)


def test_certificates_for_rank3_families():
    for fid in ("thm4_1", "thm4_2a", "thm4_2b", "thm4_3", "thm4_5"):
        cert = certify_family(build(FamilySpec.make(fid)))
        assert cert.certified_lower == 3, fid
        assert cert.genus_upper == 5
        assert all(c.status == "pass" for c in cert.checks)


def test_certificate_cor3_2_exact_rank():
    cert = certify_family(build(FamilySpec.make("cor3_2")))
    assert cert.certified_lower == cert.genus_upper == 2
    strategies = [c.witness.get("strategy") for c in cert.checks if c.name == "independence"]
    assert strategies == ["u->-u eigensplit"]


def test_certificate_rem4_6_pinned_by_genus():
    cert = certify_family(build(FamilySpec.make("rem4_6")))
    assert cert.certified_lower == cert.genus_upper == 1


def test_certificate_tower():
    lows = [certify_family(fam).certified_lower for fam in rem4_6_tower()]
    assert lows == [1, 2, 3]


def test_certificate_monotone_in_budgets():
    fam = build(FamilySpec.make("thm4_5"))
    small = certify_family(fam, samples=1, prime_budget=8)
    big = certify_family(fam, samples=3, prime_budget=60)
    assert small.certified_lower <= big.certified_lower
    assert big.certified_lower == 3


def test_certify_aborts_on_tampered_point():
    fam = build(FamilySpec.make("thm4_5"))
    bad_pts = list(fam.points)
    bad_pts[1] = CurvePoint(bad_pts[1].x, bad_pts[1].y + 1)
    broken = TwistFamily(fam.base, fam.g, tuple(bad_pts), fam.claimed_rank, fam.provenance)
    with pytest.raises(CertifyError) as err:
        certify_family(broken)
    assert err.value.check_name == "on-curve[2]"


def test_certify_aborts_on_tampered_g():
    fam = build(FamilySpec.make("cor3_2"))
    broken = TwistFamily(fam.base, fam.g + 1, fam.points, fam.claimed_rank, fam.provenance)
    with pytest.raises(CertifyError) as err:
        certify_family(broken)
    assert err.value.check_name.startswith("on-curve")


def test_certificate_json_shape():
    cert = certify_family(build(FamilySpec.make("cor3_2")))
    data = cert.to_json()
    assert data["certified_lower"] == 2 and data["genus_upper"] == 2
    assert {c["name"] for c in data["checks"]} >= {"on-curve[1]", "independence", "genus-bound"}


def test_certify_rejects_nonpositive_budgets():
    fam = build(FamilySpec.make("thm4_5"))
    for kwargs in ({"samples": 0}, {"prime_budget": 0}, {"samples": -1}):
        with pytest.raises(ValueError, match="must be positive"):
            certify_family(fam, **kwargs)


def test_recorded_verdicts_replay():
    # thm4_2b is not proved at u0 = 2 (rank 2 of 3) and proved at u0 = 3;
    # thm4_5 with three primes proves a partial rank only
    for fid, kwargs in (("thm4_2b", {}), ("thm4_5", {"samples": 1, "prime_budget": 3})):
        fam = build(FamilySpec.make(fid))
        cert = certify_family(fam, **kwargs)
        check = next(c for c in cert.checks if c.name == "independence")
        entries = check.witness["specializations"]
        assert cert.certified_lower == max(1, *(e["rank"] for e in entries))
        for entry in entries:
            spec = specialize(fam, F(entry["u0"]))
            assert spec.d == entry["d"]
            primes = entry["primes"] + ([entry["torsion_prime"]] if entry["torsion_prime"] else [])
            verdict = mod_p_relation_sieve(spec.points, spec.d, fam.base.f, primes)
            assert verdict.to_json() == {k: entry[k] for k in verdict.to_json()}


def _u0s(cert):
    check = next(c for c in cert.checks if c.name == "independence")
    return [e["u0"] for e in check.witness["specializations"]]


def test_u0_walk_skips_poles():
    # u -> u - 2 moves the points' poles at u = 0 and u = 1 to u = 2 and u = 3
    fam = build(FamilySpec.make("thm4_5"))
    shift = T - 2
    pts = tuple(CurvePoint(p.x.compose(shift), p.y.compose(shift)) for p in fam.points)
    shifted = TwistFamily(fam.base, compose(fam.g, shift).num, pts, 3, fam.provenance)
    cert = certify_family(shifted)
    assert _u0s(cert) == ["4"] and cert.certified_lower == 3
    # three primes prove rank 2 only, so the walk takes `samples` usable u0
    assert _u0s(certify_family(shifted, samples=3, prime_budget=3)) == ["4", "5", "6"]


def test_u0_walk_raises_internal_errors(monkeypatch):
    calls = []

    def off_curve(d, f, pt):
        calls.append(pt)
        if len(calls) > 50:
            raise RuntimeError("the u0 walk skipped an internal error")
        return False

    monkeypatch.setattr(certify, "on_twist", off_curve)
    with pytest.raises(CertifyError) as err:
        certify_family(build(FamilySpec.make("thm4_5")))
    assert err.value.check_name == "specialized-on-curve"
    assert "left the curve (internal error)" in str(err.value)


def test_each_family_is_checked_once(monkeypatch):
    calls = {"contains": 0, "pipeline": 0}
    contains, pipeline = TwistedCurve.contains, catalog._pipeline

    def counting_contains(self, pt):
        calls["contains"] += 1
        return contains(self, pt)

    def counting_pipeline(spec):
        calls["pipeline"] += 1
        return pipeline(spec)

    monkeypatch.setattr(TwistedCurve, "contains", counting_contains)
    monkeypatch.setattr(catalog, "_pipeline", counting_pipeline)
    for fid in ("cor3_2", "thm4_5", "rem4_6"):
        fam = build(FamilySpec.make(fid))
        calls["contains"] = 0
        certify_family(fam)
        assert calls["contains"] == len(fam.points), fid
    for fid in ("thm4_2a", "mestre3_4", "thm4_3", "rem4_6"):
        calls["pipeline"] = 0
        assert crosscheck(FamilySpec.make(fid)).ok
        assert calls["pipeline"] == 1, fid
