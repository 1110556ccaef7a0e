"""Rank certificates: eigensplit, specialization, and the mod-p sieve."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import upoly
from twistlab.catalog import FamilySpec, build, rem4_6_tower
from twistlab.certify import (
    BadPrimeError,
    CertifyError,
    RankCertificate,
    automorphism_classification,
    certify_family,
    genus_upper_bound,
    good_primes,
    mod_p_relation_sieve,
    specialize,
)
from twistlab.curves import CubicCurve, CurvePoint, TwistedCurve
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
    primes = good_primes(spec, 20)
    verdict = mod_p_relation_sieve(spec.points, spec.d, fam.base.f, primes, bound=8)
    assert verdict.independent
    assert verdict.surviving == ()
    assert verdict.excluded == ((2 * 8 + 1) ** 3 - 1) // 2


def test_sieve_detects_planted_relation():
    fam, spec = _spec_points()
    curve = spec.curve()
    p = spec.points[0]
    doubled = curve.multiply(2, p)
    primes = good_primes(spec, 12)
    verdict = mod_p_relation_sieve((p, doubled), spec.d, fam.base.f, primes, bound=4)
    assert not verdict.independent
    assert (2, -1) in verdict.surviving


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3))
def test_sieve_never_passes_dependent_inputs(m, n):
    fam, spec = _spec_points()
    curve = spec.curve()
    p = spec.points[0]
    q = curve.multiply(m, p)
    r = curve.multiply(n, spec.points[1])
    primes = good_primes(spec, 10)
    verdict = mod_p_relation_sieve((p, q, r), spec.d, fam.base.f, primes, bound=max(m, n) + 1)
    assert not verdict.independent


def test_sieve_empty_points_trivially_independent():
    fam, spec = _spec_points()
    verdict = mod_p_relation_sieve((), spec.d, fam.base.f, [53], bound=10)
    assert verdict.independent and verdict.excluded == 0


def test_sieve_rejects_bad_prime():
    fam, spec = _spec_points()
    bad = abs(spec.d)
    # pick a prime dividing 2 * d: 2 itself
    with pytest.raises(BadPrimeError):
        mod_p_relation_sieve(spec.points, spec.d, fam.base.f, [3, 29274 // 6], bound=2)
    with pytest.raises(BadPrimeError):
        mod_p_relation_sieve(spec.points, spec.d, fam.base.f, [15], bound=2)  # composite


def test_sieve_rejects_off_curve_point():
    fam, spec = _spec_points()
    fake = CurvePoint(spec.points[0].x + 1, spec.points[0].y)
    with pytest.raises(CertifyError):
        mod_p_relation_sieve((fake,), spec.d, fam.base.f, [53], bound=2)


def test_good_primes_deterministic_and_floor():
    fam, spec = _spec_points()
    a = good_primes(spec, 25, seed=0)
    b = good_primes(spec, 25, seed=0)
    c = good_primes(spec, 25, seed=1)
    assert a == b and len(a) == 25
    assert all(p > 50 for p in a)
    assert a != c  # a different seed reshuffles the pool


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
    small = certify_family(fam, samples=1, prime_budget=8, relation_bound=4)
    big = certify_family(fam, samples=3, prime_budget=25, relation_bound=10)
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


def test_pair_fallback_leaves_a_replayable_record():
    fam = build(FamilySpec.make("thm4_5"))
    cert = certify_family(fam, samples=1, prime_budget=3)
    assert cert.certified_lower == 2
    check = next(c for c in cert.checks if c.name == "independence")
    assert check.status == "inconclusive"
    full, *pairs = check.witness["specializations"]
    assert full["verdict"] == "possible-relation" and "pair" not in full
    assert pairs and pairs[-1]["verdict"] == "independent-up-to-bound"
    for entry in pairs:
        spec = specialize(fam, F(entry["u0"]))
        assert spec.d == entry["d"] == full["d"]
        i, j = entry["pair"]
        verdict = mod_p_relation_sieve((spec.points[i], spec.points[j]), spec.d, fam.base.f, entry["primes"])
        assert verdict.to_json() == {k: entry[k] for k in verdict.to_json()}
