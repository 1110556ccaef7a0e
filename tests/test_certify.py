"""Rank certificates: eigensplit, specialization, and the mod-ell reduction proof."""

import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import multiple, upoly
from twistlab import catalog, certify
from twistlab.catalog import FamilySpec, build, crosscheck, rem4_6_tower
from twistlab.certify import (
    ELLS,
    BadPrimeError,
    CertifyError,
    SpecializedTwist,
    _count_points,
    _ell_row,
    _mod_frac,
    automorphism_classification,
    certify_family,
    certify_specialization,
    genus_upper_bound,
    good_primes,
    mod_p_relation_sieve,
    specialize,
    structural_checks,
)
from twistlab.curves import CubicCurve, CurvePoint, TwistedCurve
from twistlab.densitylab import certified_density, enumerate_S, homog_form
from twistlab.exactmath import T, compose, discriminant_cubic
from twistlab.jsonio import dump_json
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
    curve = TwistedCurve(spec.base, spec.d)
    assert len(spec.points) == 3
    for p in spec.points:
        assert curve.contains(p)


def test_specialize_clears_square_part():
    fam = build(FamilySpec.make("thm4_5"))
    # g(1/2) has denominator 2^12, a perfect square to absorb
    spec = specialize(fam, F(1, 2))
    assert spec.d == -29274  # reciprocal symmetry of the palindromic g
    assert TwistedCurve(spec.base, spec.d).contains(spec.points[0])


def _specialized(fam, u0, *d):
    try:
        return specialize(fam, u0, *d)
    except CertifyError as exc:
        return exc.check_name, str(exc)


def test_specialize_takes_the_sieves_d():
    for fid in ("thm4_5", "cor3_2"):
        fam = build(FamilySpec.make(fid))
        report = enumerate_S(homog_form(fam.g, fam.provenance.get("factor_polys")), grid=20, x_max=None)
        for d, (a, b) in report.witnesses.items():
            spec = _specialized(fam, F(a, b), d)
            assert spec == _specialized(fam, F(a, b)), (fid, d)
            if isinstance(spec, SpecializedTwist):
                # the oracle of the on-curve fact that structural_checks proves over Q(u)
                curve = TwistedCurve(spec.base, spec.d)
                assert all(curve.contains(p) for p in spec.points), (fid, d)


def test_specialize_rejects_a_d_off_its_square_class(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"g(u0) = {n} factored although d was given")

    monkeypatch.setattr(certify, "squarefree_part_int", no_factoring)
    fam = build(FamilySpec.make("thm4_5"))
    assert specialize(fam, 2, -29274).d == -29274
    for d in (29274, -29274 * 5, 1):
        assert _specialized(fam, 2, d) == ("specialize", "witness mismatch")


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
    curve = TwistedCurve(spec.base, spec.d)
    p = spec.points[0]
    doubled = multiple(curve, 2, p)
    verdict = mod_p_relation_sieve((p, doubled), spec.d, fam.base.f, good_primes(spec, 60))
    assert not verdict.independent and verdict.rank <= 1
    assert verdict.to_json()["verdict"] == "not-proved"


def test_sieve_proves_p_and_3q_at_ell_other_than_3():
    # every row at ell = 3 vanishes on 3Q, so only ell = 5 or 7 can prove the pair
    fam, spec = _spec_points()
    pts = (spec.points[0], multiple(TwistedCurve(spec.base, spec.d), 3, spec.points[1]))
    primes = good_primes(SpecializedTwist(spec.u0, spec.d, spec.base, pts), 60)
    verdict = mod_p_relation_sieve(pts, spec.d, fam.base.f, primes)
    assert verdict.independent and verdict.rank == 2
    assert verdict.ell != 3


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3))
def test_sieve_never_passes_dependent_inputs(m, n):
    fam, spec = _spec_points()
    curve = TwistedCurve(spec.base, spec.d)
    p = spec.points[0]
    q = multiple(curve, m, p)
    r = multiple(curve, n, spec.points[1])
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
    assert all(4099 % q for q in range(2, math.isqrt(4099) + 1))
    # a prime at most max(ELLS), a prime dividing d, a composite, a prime above the table
    for primes in ([3], [17], [15], [4099]):
        with pytest.raises(BadPrimeError):
            mod_p_relation_sieve(spec.points, spec.d, fam.base.f, primes)


def test_sieve_rejects_a_prime_dividing_a_denominator():
    # 17 is of good reduction and prime to D at u0 = 4, but point 1 has
    # x = -161/867 with 867 = 3 * 17^2, so it does not reduce mod 17
    fam = build(FamilySpec.make("thm4_5"))
    spec = specialize(fam, 4)
    assert spec.points[0].x == F(-161, 867) and spec.d % 17 and certify._reductions(fam.base.f)[17]
    assert 17 not in good_primes(spec, 60)
    for primes in ([17], [17] + good_primes(spec, 20)):
        with pytest.raises(BadPrimeError, match="denominator divisible by 17"):
            mod_p_relation_sieve(spec.points, spec.d, fam.base.f, primes)


def test_points_are_reduced_only_at_row_primes(monkeypatch):
    # one sieve call's _mod_frac primes are exactly its F_ell row primes,
    # each reducing every coordinate once; the sieve runs on the census D
    # at grid 12, which the census itself reads from the residue table
    fam = build(FamilySpec.make("thm4_5"))
    report = enumerate_S(homog_form(fam.g, fam.provenance.get("factor_polys")), grid=12, x_max=None)
    specs = []
    for d, (a, b) in sorted(report.witnesses.items()):
        try:
            specs.append(specialize(fam, F(a, b), d))
        except CertifyError:  # a pole
            pass
    for spec in specs:  # fills the a_p tables, which reduce f with _mod_frac
        certify_specialization(spec, 30)
    calls = []
    mod_frac, ell_row, sieve = certify._mod_frac, certify._ell_row, certify.mod_p_relation_sieve

    def counting_sieve(points, *args, **kwargs):
        calls.append((len(points), Counter(), set()))
        return sieve(points, *args, **kwargs)

    def counting_mod_frac(q, p):
        calls[-1][1][p] += 1
        return mod_frac(q, p)

    def counting_ell_row(mc, order, ell, reduced):
        calls[-1][2].add(mc.p)
        return ell_row(mc, order, ell, reduced)

    monkeypatch.setattr(certify, "mod_p_relation_sieve", counting_sieve)
    monkeypatch.setattr(certify, "_mod_frac", counting_mod_frac)
    monkeypatch.setattr(certify, "_ell_row", counting_ell_row)
    for spec in specs:
        certify_specialization(spec, 30)
    assert len(calls) > 40
    for r, reduced_at, row_primes in calls:
        assert row_primes and reduced_at == {p: 2 * r for p in row_primes}


def test_specialize_rejects_off_curve_point():
    # structural_checks is the one on-curve check: it proves g*y^2 = f(x)
    # over Q(u), which every specialization inherits, so specialize, whose
    # callers all run it first, does not test the points again
    fam = build(FamilySpec.make("thm4_5"))
    pts = list(fam.points)
    pts[1] = CurvePoint(pts[1].x + 1, pts[1].y)
    tampered = TwistFamily(fam.base, fam.g, tuple(pts), fam.claimed_rank, fam.provenance)
    for check in (structural_checks, certify_family):
        with pytest.raises(CertifyError) as err:
            check(tampered)
        assert err.value.check_name == "on-curve[2]"


def test_ell_row_rejects_a_wrong_point_count():
    # a count off by ell keeps ell | order but sends the points outside E[ell]
    fam, spec = _spec_points()
    den = math.prod(pt.x.denominator * pt.y.denominator for pt in spec.points)
    for p in good_primes(spec, 20):
        mc, order = certify._reduce_at(p, spec.d, den, certify._reductions(fam.base.f))
        reduced = [(_mod_frac(pt.x, p), _mod_frac(pt.y, p)) for pt in spec.points]
        for ell in ELLS:
            if order % ell == 0 and order % (ell * ell):
                assert len(_ell_row(mc, order, ell, reduced)) == len(reduced)
                with pytest.raises(CertifyError) as err:
                    _ell_row(mc, order + ell, ell, reduced)
                assert err.value.check_name == "point-count"


def test_count_points_matches_brute_force():
    # one a_p per prime, and D from both square classes mod p
    fam, spec = _spec_points()
    f = fam.base.f
    traces = []
    for p in (11, 13, 19, 23, 29, 53, 97):
        e2, e1, e0, a_p = certify._reductions(f)[p]
        traces.append(a_p)
        f_mod_p = [_mod_frac(f(F(x)), p) for x in range(p)]
        assert f_mod_p == [(((x + e2) * x + e1) * x + e0) % p for x in range(p)]
        nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)
        for d in (spec.d, 1, -1, 5, 77, nonresidue, -nonresidue):
            if d % p == 0:
                continue
            brute = 1 + sum(1 for x in range(p) for y in range(p) if (d * y * y - f_mod_p[x]) % p == 0)
            assert _count_points(p, d, a_p) == brute, (d, p)
    assert any(traces)  # else the sign of (D/p) would go untested


def test_a_p_is_computed_once_per_curve_and_prime(monkeypatch):
    calls = Counter()
    trace = certify._frobenius_trace

    def counting(*key):
        calls[key] += 1
        return trace(*key)

    certify._reductions.cache_clear()
    monkeypatch.setattr(certify, "_frobenius_trace", counting)
    fam = build(FamilySpec.make("thm4_5"))
    form = homog_form(fam.g, fam.provenance.get("factor_polys"))
    report = certified_density(fam, enumerate_S(form, grid=20, x_max=None))
    assert len(report.certifications) > 100 and calls
    assert max(calls.values()) == 1


def test_reductions_keep_one_table_for_each_of_64_cubics():
    certify._reductions.cache_clear()
    f = build(FamilySpec.make("thm4_5")).base.f
    table = certify._reductions(f)
    assert certify._reductions(upoly(*f.coeffs)) is table
    for c in range(1, 65):  # x^3 + c is nonsingular for c != 0
        certify._reductions(upoly(c, 0, 0, 1))
    info = certify._reductions.cache_info()
    assert info.maxsize == 64 and info.currsize == 64
    assert certify._reductions(f) is not table  # the least recently used went first


def test_good_primes_deterministic_and_floor(monkeypatch):
    # the first 25 primes above 7 of a brute-force filter, found without any a_p
    def no_trace(*args):
        raise AssertionError("good_primes computed an a_p")

    certify._reductions.cache_clear()
    monkeypatch.setattr(certify, "_frobenius_trace", no_trace)
    fam, spec = _spec_points()
    a = good_primes(spec, 25)
    assert a == good_primes(spec, 25)
    disc = discriminant_cubic(fam.base.f)
    bad = 2 * spec.d * disc.numerator * disc.denominator
    bad *= math.prod(c.denominator for c in fam.base.f.coeffs)
    for pt in spec.points:
        bad *= pt.x.denominator * pt.y.denominator
    brute = (p for p in range(8, 10 ** 4) if all(p % q for q in range(2, math.isqrt(p) + 1)) and bad % p)
    assert a == [next(brute) for _ in range(25)]


def test_certificates_for_rank3_families():
    for fid in ("thm4_1", "thm4_2a", "thm4_2b", "thm4_3", "thm4_5"):
        cert = certify_family(build(FamilySpec.make(fid)))
        assert cert["certified_lower"] == 3, fid
        assert cert["genus_upper"] == 5
        assert all(c["status"] == "pass" for c in cert["checks"])


def test_certificate_cor3_2_exact_rank():
    cert = certify_family(build(FamilySpec.make("cor3_2")))
    assert cert["certified_lower"] == cert["genus_upper"] == 2
    strategies = [c["witness"].get("strategy") for c in cert["checks"] if c["name"] == "independence"]
    assert strategies == ["u->-u eigensplit"]


def test_certificate_rem4_6_pinned_by_genus():
    cert = certify_family(build(FamilySpec.make("rem4_6")))
    assert cert["certified_lower"] == cert["genus_upper"] == 1


def test_certificate_tower():
    lows = [certify_family(fam)["certified_lower"] for fam in rem4_6_tower()]
    assert lows == [1, 2, 3]


def test_certificate_monotone_in_budgets():
    fam = build(FamilySpec.make("thm4_5"))
    small = certify_family(fam, samples=1, prime_budget=8)
    big = certify_family(fam, samples=3, prime_budget=60)
    assert small["certified_lower"] <= big["certified_lower"]
    assert big["certified_lower"] == 3


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
    data = certify_family(build(FamilySpec.make("cor3_2")))
    assert data["certified_lower"] == 2 and data["genus_upper"] == 2
    assert {c["name"] for c in data["checks"]} >= {"on-curve[1]", "independence", "genus-bound"}


@pytest.mark.parametrize("fid", ["cor3_2", "thm4_5"])  # eigensplit and mod-ell witnesses
def test_certificate_is_its_json(fid):
    cert = certify_family(build(FamilySpec.make(fid)))
    assert cert == json.loads(dump_json(cert))


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
        check = next(c for c in cert["checks"] if c["name"] == "independence")
        entries = check["witness"]["specializations"]
        assert cert["certified_lower"] == max(1, *(e["rank"] for e in entries))
        for entry in entries:
            spec = specialize(fam, F(entry["u0"]))
            assert spec.d == entry["d"]
            primes = entry["primes"] + ([entry["torsion_prime"]] if entry["torsion_prime"] else [])
            verdict = mod_p_relation_sieve(spec.points, spec.d, fam.base.f, primes)
            assert verdict.to_json() == {k: entry[k] for k in verdict.to_json()}


def _u0s(cert):
    check = next(c for c in cert["checks"] if c["name"] == "independence")
    return [e["u0"] for e in check["witness"]["specializations"]]


def test_u0_walk_skips_poles():
    # u -> u - 2 moves the points' poles at u = 0 and u = 1 to u = 2 and u = 3
    fam = build(FamilySpec.make("thm4_5"))
    shift = T - 2
    pts = tuple(CurvePoint(p.x.compose(shift), p.y.compose(shift)) for p in fam.points)
    shifted = TwistFamily(fam.base, compose(fam.g, shift).num, pts, 3, fam.provenance)
    cert = certify_family(shifted)
    assert _u0s(cert) == ["4"] and cert["certified_lower"] == 3
    # three primes prove rank 2 only, so the walk takes `samples` usable u0
    assert _u0s(certify_family(shifted, samples=3, prime_budget=3)) == ["4", "5", "6"]


def test_u0_walk_skips_a_point_with_y_zero(monkeypatch):
    # a specialization with a point of order 2 proves nothing about the rank
    real = certify.specialize

    def two_torsion_at_2(fam, u0, d=None):
        spec = real(fam, u0, d)
        if u0 == 2:
            points = (CurvePoint(spec.points[0].x, Fraction(0)),) + spec.points[1:]
            spec = SpecializedTwist(spec.u0, spec.d, spec.base, points)
        return spec

    monkeypatch.setattr(certify, "specialize", two_torsion_at_2)
    cert = certify_family(build(FamilySpec.make("thm4_5")))
    assert _u0s(cert) == ["3"] and cert["certified_lower"] == 3


def test_u0_walk_raises_internal_errors(monkeypatch):
    calls = []

    def wrong_count(mc, order, ell, reduced):
        calls.append(mc.p)
        if len(calls) > 50:
            raise RuntimeError("the u0 walk skipped an internal error")
        raise CertifyError("point-count", f"#E(F_{mc.p}) = {order} is wrong (internal error)")

    monkeypatch.setattr(certify, "_ell_row", wrong_count)
    with pytest.raises(CertifyError) as err:
        certify_family(build(FamilySpec.make("thm4_5")))
    assert err.value.check_name == "point-count"
    assert "is wrong (internal error)" in str(err.value)


def test_each_family_is_checked_once(monkeypatch):
    calls = {"contains": 0, "pipeline": 0}
    contains, pipeline = TwistedCurve.contains, catalog.build_pipeline

    def counting_contains(self, pt):
        calls["contains"] += 1
        return contains(self, pt)

    def counting_pipeline(spec):
        calls["pipeline"] += 1
        return pipeline(spec)

    monkeypatch.setattr(TwistedCurve, "contains", counting_contains)
    monkeypatch.setattr(catalog, "build_pipeline", counting_pipeline)
    for fid in ("cor3_2", "thm4_5", "rem4_6"):
        fam = build(FamilySpec.make(fid))
        calls["contains"] = 0
        certify_family(fam)
        assert calls["contains"] == len(fam.points), fid
    for fid in ("thm4_2a", "mestre3_4", "thm4_3", "rem4_6"):
        calls["pipeline"] = 0
        assert crosscheck(FamilySpec.make(fid))["ok"]
        assert calls["pipeline"] == 1, fid
