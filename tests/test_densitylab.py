"""Squarefree-twist counting: forms, enumeration, fitting, certification."""

import hashlib
import inspect
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from twistlab import certify, curves, densitylab
from twistlab.certify import CertifyError
from twistlab.catalog import FAMILY_IDS, FamilySpec, build, build_pipeline
from twistlab.densitylab import (
    DensityError,
    DensityReport,
    certified_density,
    enumerate_S,
    fit_exponent,
    homog_form,
    sieved_values,
    with_fit,
)
from twistlab.curves import CurvePoint
from twistlab.exactmath import RatFunc, UniPoly, compose, eval_form, is_probable_prime, squarefree_part_int
from twistlab.twistforge import TwistFamily


def _form(fid):
    fam = build(FamilySpec.make(fid))
    return fam, homog_form(fam.g, fam.provenance.get("factor_polys"))


def _value(form, a, b):
    """F(a, b), evaluated directly from the whole form."""
    return eval_form(form.coeffs, a, b, form.degree)


def test_eval_form_reproduces_g():
    fam, form = _form("thm4_5")
    assert form.k == 6
    assert _value(form, 2, 1) == -29274
    assert _value(form, 0, 1) == 6  # the constant coefficient
    # F(a, 1) = g(a)
    for a in range(1, 6):
        assert _value(form, a, 1) == UniPoly(fam.g.coeffs)(Fraction(a))


def test_form_homogeneity():
    _, form = _form("thm4_5")
    for a, b in ((1, 2), (3, 5), (2, 7)):
        assert _value(form, 2 * a, 2 * b) == 2 ** (2 * form.k) * _value(form, a, b)


def test_form_clears_denominators():
    fam, form = _form("cor3_3")  # base cubic has a rational non-integer coefficient
    assert all(isinstance(c, int) for c in form.coeffs)
    assert form.k == 3


def test_factored_path_matches_direct_factorization():
    rng = random.Random(3)
    for fid in ("cor3_2", "thm4_5", "thm4_3", "rem4_6"):
        fam, form = _form(fid)
        assert form.factor_coeffs  # the catalog supplies a split
        for _ in range(60):
            a, b = rng.randint(1, 40), rng.randint(1, 40)
            direct = _value(form, a, b)
            got = form.squarefree_value(a, b)
            if direct == 0:
                assert got is None
            else:
                assert got == squarefree_part_int(direct)



def _brute_root_table(fc, primes):
    table = []
    for p in primes:
        roots = [x for x in range(p) if sum(c * x ** i for i, c in enumerate(fc)) % p == 0]
        if roots or fc[-1] % p == 0:
            table.append((p, roots, fc[-1] % p == 0))
    return table


def test_root_table_matches_brute_force():
    rng = random.Random(11)
    companions = random.Random(12)  # the smaller sieve primes of each case
    primes = [p for p in range(2, 400) if is_probable_prime(p)]
    for _ in range(600):
        p = rng.choice(primes)
        if rng.random() < 0.5:
            coeffs = [rng.randint(-60, 60) for _ in range(rng.randint(1, 13))]
        else:  # a product of linear factors, so that many roots split off
            coeffs = [rng.choice([1, 2, p])]
            for _ in range(rng.randint(1, 8)):
                r = rng.randrange(p)
                coeffs = [-r * coeffs[0]] + [coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))] + [coeffs[-1]]
        smaller = primes[: primes.index(p)]
        sieve_primes = sorted(companions.sample(smaller, min(3, len(smaller)))) + [p]
        assert densitylab._root_table(coeffs, sieve_primes) == _brute_root_table(coeffs, sieve_primes), (coeffs, sieve_primes)
    # the primes between SMALL_PRIME_BOUND and the sieve's cap, with integer
    # roots among them so that one value has several primes above it
    large = [p for p in range(4097, 8193) if is_probable_prime(p)]
    for _ in range(12):
        sieve_primes = sorted(rng.sample(large, 3))
        coeffs = [rng.randint(-60, 60) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.5:
            r = rng.randrange(sieve_primes[0])
            coeffs = [-r * coeffs[0]] + [coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))] + [coeffs[-1]]
        assert densitylab._root_table(coeffs, sieve_primes) == _brute_root_table(coeffs, sieve_primes), (coeffs, sieve_primes)


def test_root_table_edge_cases():
    table = densitylab._root_table
    assert table([7 * 13, 0, 7], [7]) == [(7, list(range(7)), True)]  # vanishes mod p
    assert table([5], [101]) == [] and table([0], [101]) == [(101, list(range(101)), True)]
    assert table([1, 0], [3]) == [(3, [], True)]  # the form b: a zero leading coefficient
    assert table([-2, 0, 1], [4093]) == []  # 2 is a nonresidue mod 4093
    assert table([-2, 0, 1], [4057]) == [(4057, [432, 3625], False)]  # 432^2 = 2 mod 4057
    assert table([0, 1, 1], [2]) == [(2, [0, 1], False)] and table([1, 1, 1], [2]) == []
    # 6 x^2 + 1: 2 and 3 divide the leading coefficient and no value
    assert table([1, 0, 6], [2, 3, 5, 7]) == [(2, [], True), (3, [], True), (5, [2, 3], False), (7, [1, 6], False)]
    # the integer root 3 of x - 3 is a root mod every prime above it
    assert table([-3, 1], [2, 3, 5, 7]) == [(2, [1], False), (3, [0], False), (5, [3], False), (7, [3], False)]
    # x - 15 is -15 = -3*5 at 0 and -14 = -2*7 at 1: two primes above x divide one value
    assert table([-15, 1], [2, 3, 5, 7]) == [(2, [1], False), (3, [0], False), (5, [0], False), (7, [1], False)]
    assert table([-(4099 * 4111 + 5), 1], [4099, 4111]) == [(4099, [5], False), (4111, [5], False)]
    # 128^2 = 2^14 = 2 mod 8191 = 2^13 - 1
    assert table([-2, 0, 1], [4099, 8191]) == [(8191, [128, 8063], False)]  # 2 is a nonresidue mod 4099

# sha256 of the sorted (D, witness) list from enumerate_S with x_max=None,
# keyed by (family, grid, modulus); the nine defaults run at grid 30
WITNESS_SHA256 = {
    ("cor3_2", 120, 1): "c7987e2498dcf7a0ab64acfded8e924b1a4d6d1aa1fb028837182692962e93ef",
    ("thm4_5", 120, 1): "4e56a98d89d491231a11ef610d73d091013e4ca0e337c4f5f3bfea2c2e0df133",
    ("cor3_2", 300, 1): "806cee896b0499796d98ddde14e9ee28c3e0dfd529e9ffcdf8c7414ec089f055",
    ("thm4_5", 300, 1): "ffee754e34077f378bded5c26aacd77e37e843da2f73c3eafd518a3f29f7dab1",
    ("cor3_2", 30, 1): "bb00f771f55dd14971fffaf3cae54edb70d9b6f2a675daacb044700e0a78a6c0",
    ("cor3_2", 30, 3): "349da920391da9336de87ceaddc21166dcdedf26fb7acfd8a989c738bdb4e279",
    ("cor3_3", 30, 1): "a55096809edfebd27f9bf43a6ffbcc2d267cc042b78297e886618f625ee4b829",
    ("cor3_3", 30, 3): "d21898dc8fdb0762f581d00073fd2ee98cea5d4838a509c7f13bdcdee6e36c93",
    ("mestre3_4", 30, 1): "0971dc23e3dcd2c304d8f9f523a11a37881d226f78ae7fd7f43e5ea0ae12c5fa",
    ("mestre3_4", 30, 3): "d16da4f9a824715e547ace4cc540c673fc5cacd4d2e9728cce7edbf9b8723dfd",
    ("thm4_1", 30, 1): "9d0c6ace968ded697e73545dbbd77d5215f0a1ba2cf665ba229a1c8b745d1d4b",
    ("thm4_1", 30, 3): "7f29ece5e6b86d5c23ff02b6492f76d239f82de53b95f006659678bbe0f3f67b",
    ("thm4_2a", 30, 1): "58a451681e9e017d584de814a9e620ca202a716119cce078f4f8d0cead8648e7",
    ("thm4_2a", 30, 3): "f38c7cff68ddc689960108521300a843d99ef477f00b1eeec29b525b901f61e5",
    ("thm4_2b", 30, 1): "ad7e5e9ab8c96938987a5ac8f25298d106c02294f4cf93d1d172de502012fa15",
    ("thm4_2b", 30, 3): "d8f94b326248027f046b2e810f06b62676c427050254387feaff350c62188469",
    ("thm4_3", 30, 1): "7a9a66ee916f1c5485bbff44bfca007aac6e7382c08aadba0a57f369c68f086c",
    ("thm4_3", 30, 3): "3a475e3e952d41c1213ef6cf5b72eca9e17746d3d1022168c54e318bbfed7bf5",
    ("thm4_5", 30, 1): "461ca258554848f2f325d1191e3dbe9071e2d6c3b31a24c5c0e600aea6b4d346",
    ("thm4_5", 30, 3): "958c8215c766e73dc96777ce3fcc2924c275163dc0cfc1224740a811a5fd7b7b",
    ("rem4_6", 30, 1): "682c90a9fa4c9941d21351d2b99d3c0833aadd37ee71a30d37625947ad9f2c36",
    ("rem4_6", 30, 3): "4dc79e40510f1a665a66c8461f7acec4a21ce116ef4168a0da1410d2227cdf60",
}


def test_enumeration_digests():
    for (fid, grid, modulus), digest in WITNESS_SHA256.items():
        _, form = _form(fid)
        rep = enumerate_S(form, grid=grid, modulus=modulus, x_max=None)
        text = json.dumps(sorted(rep.witnesses.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (fid, grid, modulus)
    assert {fid for fid, _, _ in WITNESS_SHA256} == set(FAMILY_IDS)


def _sieve_against_oracle(form, grid):
    """Check every sieved D against squarefree_part_int(F(a, b)); count the zeros."""
    seen = set()
    zeros = 0
    for a, b, d in sieved_values(form, grid):
        value = _value(form, a, b)
        if value == 0:
            assert d is None, (a, b)
            zeros += 1
        else:
            assert d == squarefree_part_int(value), (a, b)
        seen.add((a, b))
    assert seen == {(a, b) for a in range(1, grid + 1) for b in range(1, grid + 1) if math.gcd(a, b) == 1}
    return zeros


def _record_factored(monkeypatch):
    """The cofactor lists that the sieve hands to factorize, as it runs."""
    factored = []
    product = densitylab._squarefree_product
    monkeypatch.setattr(densitylab, "_squarefree_product", lambda values: factored.append(values) or product(values))
    return factored


def test_sieve_matches_factorization_oracle(monkeypatch):
    factored = _record_factored(monkeypatch)
    zeros = 0
    for fid in FAMILY_IDS:
        for route in (build, build_pipeline):
            fam = route(FamilySpec.make(fid))
            factored.clear()
            zeros += _sieve_against_oracle(homog_form(fam.g, fam.provenance.get("factor_polys")), 18)
            if fid == "mestre3_4":  # the degree-12 factor leaves cofactors above B^3 = 8192^3
                assert factored
    assert zeros  # thm4_3 has the linear factor a - 2b


def test_sieve_needs_no_factoring_below_the_cap(monkeypatch):
    # cor3_2 at grid 300 sieves to B = 5712, the least B with B^3 above its
    # factor values, so no pair falls back to factorize
    factored = _record_factored(monkeypatch)
    _, form = _form("cor3_2")
    assert densitylab._sieve_bound(form.factor_coeffs, 300) == 5712
    assert sum(1 for _ in sieved_values(form, 300)) == 54795
    assert factored == []


def test_sieve_factors_cofactors_that_share_a_prime(monkeypatch):
    # x and x + 101 y: B = 24 at grid 120, and 101 divides both values at a = 101
    factored = _record_factored(monkeypatch)
    form = homog_form(UniPoly([0, 101, 1]), [["0", "1"], ["101", "1"]])
    assert form.factor_coeffs == ((0, 1), (101, 1))
    assert _sieve_against_oracle(form, 120) == 0
    assert factored and all(values[0] % 101 == 0 for values in factored)


def test_constant_factor_with_primes_above_the_bound_is_sieved_as_a_factor():
    # B = 22 at grid 5 for 10007(u^2 + 1), and B = 4 for 29(u^2 + 1), where
    # 29 = 2^2 + 5^2 also divides the value at (2, 5)
    for c, bound in ((10007, 22), (29, 4)):
        form = homog_form(UniPoly([c, 0, c]), [[str(c)], ["1", "0", "1"]])
        assert densitylab._sieve_bound(form.factor_coeffs, 5) == bound
        assert densitylab._constant_start(form.factor_coeffs, bound) == (1, form.factor_coeffs)
        for a, b, d in sieved_values(form, 5):
            assert d == form.squarefree_value(a, b), (c, a, b)


def test_single_cell_grid():
    _, form = _form("thm4_5")
    rep = enumerate_S(form, grid=1, modulus=1, x_max=10 ** 9)
    assert set(rep.witnesses) == {squarefree_part_int(_value(form, 1, 1))}
    assert rep.witnesses[squarefree_part_int(_value(form, 1, 1))] == (1, 1)


def test_counts_nondecreasing_and_bounded():
    _, form = _form("cor3_2")
    rep = enumerate_S(form, grid=25, modulus=1, x_max=None)
    assert list(rep.counts) == sorted(rep.counts)
    assert rep.counts[-1] <= len(rep.witnesses)
    for d in rep.witnesses:
        assert squarefree_part_int(d) == d  # every member is squarefree


def test_dedup_keeps_smallest_witness():
    _, form = _form("thm4_5")
    # the palindromic g gives F(1,2) = F(2,1); the (a+b, a)-smallest pair wins
    assert _value(form, 1, 2) == _value(form, 2, 1) == -29274
    rep = enumerate_S(form, grid=2, modulus=1, x_max=None)
    assert rep.witnesses[-29274] == (1, 2)


def test_congruence_filter():
    _, form = _form("cor3_2")
    rep = enumerate_S(form, grid=9, modulus=3, x_max=None)
    for a, b in rep.witnesses.values():
        assert a % 3 == 1 and b % 3 == 1


def test_x_max_defaults_to_no_cap():
    # the library keeps every |D| by default, as the CLI's --x-max does
    _, form = _form("cor3_2")
    rep = enumerate_S(form, grid=10)
    assert rep == enumerate_S(form, grid=10, x_max=None)
    assert max(abs(d) for d in rep.witnesses) >= 10 ** 6


def test_x_max_filters_membership():
    _, form = _form("cor3_2")
    rep = enumerate_S(form, grid=10, modulus=1, x_max=1000)
    assert all(abs(d) < 1000 for d in rep.witnesses)


def test_fit_exact_power_law():
    xs = tuple(10 ** (3 * i) for i in range(1, 7))
    counts = tuple(5 * round(x ** (1 / 3)) for x in xs)
    rep = DensityReport("synthetic", 0, 1, xs, counts, {})
    slope, intercept, residual = fit_exponent(rep)
    assert abs(slope - 1 / 3) < 1e-6
    assert residual < 1e-6
    assert abs(math.exp(intercept) - 5) < 1e-3


def test_fit_requires_enough_points():
    rep = DensityReport("synthetic", 0, 1, (10, 100, 1000), (1, 2, 3), {})
    with pytest.raises(DensityError):
        fit_exponent(rep)


def test_small_grid_slopes_land_near_prediction():
    fam, form = _form("cor3_2")
    rep = with_fit(enumerate_S(form, grid=60, modulus=1, x_max=None, family="cor3_2"))
    assert 0.2 < rep.fit[0] < 0.5  # around 1/3 at desk scale


def test_certified_density_subset_and_witnesses():
    fam, form = _form("thm4_5")
    rep = enumerate_S(form, grid=12, modulus=1, x_max=None, family="thm4_5")
    out = certified_density(fam, rep, prime_budget=15)
    assert all(c <= t for c, t in zip(out.certified_counts, out.counts))
    certified = [d for d, rec in out.certifications.items() if rec["certified"]]
    assert len(certified) / len(out.witnesses) > 0.9
    # replayable witness: ell, the row primes and the torsion prime are recorded
    some = out.certifications[certified[0]]
    assert some["verdict"] == "independent" and some["rank"] == 3
    assert len(some["primes"]) == 3 and some["ell"] in (3, 5, 7) and some["torsion_prime"]
    assert out.witnesses[certified[0]][1] >= 1


def test_the_census_builds_no_polynomial_per_d(monkeypatch):
    # the census evaluates g and the point coordinates at every D from their
    # integer coefficients, so it builds as many polynomials at grid 50 as at
    # grid 20
    built = []
    init = UniPoly.__init__
    monkeypatch.setattr(UniPoly, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    for fid in ("thm4_5", "cor3_2"):
        fam, form = _form(fid)
        counts = []
        for grid in (20, 50):
            rep = enumerate_S(form, grid=grid, x_max=None)
            built.clear()
            certified_density(fam, rep)
            counts.append(len(built))
        assert len(rep.witnesses) > 700 and 0 < counts[0] == counts[1] < 100, (fid, counts)


def test_certified_d_needs_the_claimed_rank():
    # thm4_5 without its third point still claims rank 3: proving its two
    # points independent at a D is rank-2 evidence, not a certified D
    fam, form = _form("thm4_5")
    truncated = TwistFamily(fam.base, fam.g, fam.points[:2], fam.claimed_rank, fam.provenance)
    out = certified_density(truncated, enumerate_S(form, grid=10, x_max=None), prime_budget=15)
    assert any(rec.get("rank") == 2 for rec in out.certifications.values())
    assert not any(rec["certified"] for rec in out.certifications.values())
    assert set(out.certified_counts) == {0}


# sha256 of the `certifications` payload of certified_density with x_max=None,
# by (family, grid): every verdict, its primes, ell and torsion prime.  Grid 50
# is the payload of the census benchmarks.
CERTIFICATION_SHA256 = {
    ("thm4_5", 30): "4725083b3c83aa66629c6540253aebbcebd9aa3d3e9a3b8e5e74381c90c0f7cb",
    ("cor3_2", 30): "30545589e528840edcc8f06b33ca8c9765aa38ed0ba5113e9fe330b4e7dca3a4",
    ("thm4_5", 50): "89d7f3776053f1d8f415425efaf7f0acf6d09a998e9d771d8ca6411b1b27ff16",
    ("cor3_2", 50): "cafc57c39d8cd7af0f64581c032f303974de98280a5805aa0502ef2fd7345643",
}


def test_certification_digests():
    for (fid, grid), digest in CERTIFICATION_SHA256.items():
        fam, form = _form(fid)
        rep = certified_density(fam, enumerate_S(form, grid=grid, x_max=None, family=fid))
        text = json.dumps(rep.to_json()["certifications"])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (fid, grid)


def _rho(a, b, p):
    """u0 = a/b mod p, with p standing for infinity."""
    return a * pow(b, -1, p) % p if b % p else p


def test_residue_table_matches_the_exact_path():
    # at every D and every table prime up to the budget, the table skips,
    # keeps and counts as good_primes and _reduce_at do, and its rows are
    # the _ell_row rows of the specialized points; thm4_1 has good primes at
    # u0 = infinity and thm4_3 a 0/0 that the table leaves undecided
    budget = certify.DEFAULT_PRIME_BUDGET
    classes = Counter()
    for fid, grid in (("thm4_5", 50), ("cor3_2", 50), ("thm4_1", 20), ("thm4_3", 20)):
        fam, form = _form(fid)
        table = certify.ResidueTable(fam)
        for d, (a, b) in sorted(enumerate_S(form, grid=grid, x_max=None).witnesses.items()):
            try:
                walk = list(table._reductions_at(d, a, b, budget))
            except certify._Undecided:  # a pole (no good prime) or an undecided prime
                assert table.verdict(d, a, b, budget) is None
                classes["undecided"] += 1
                continue
            spec = certify.specialize(fam, Fraction(a, b), d)
            good = certify.good_primes(spec, budget)
            assert [p for p, _, _ in walk] == good, (fid, d)
            den = math.prod(pt.x.denominator * pt.y.denominator for pt in spec.points)
            for p, order, row in walk:
                mc, exact_order = certify._reduce_at(p, d, den, table.reductions)
                assert order == exact_order, (fid, d, p)
                reduced = [(certify._mod_frac(pt.x, p), certify._mod_frac(pt.y, p)) for pt in spec.points]
                for ell in certify.ELLS:
                    if order % ell == 0 and order % (ell * ell):
                        assert row(ell) == certify._ell_row(mc, order, ell, reduced), (fid, d, p, ell)
                rho = _rho(a, b, p)
                classes["good at infinity"] += rho == p
                classes["p | W"] += not table._at(table.g, rho, p)
            for p in table.reductions.primes:
                if p > good[-1]:
                    break
                if p not in good and d % p:
                    classes["bad at infinity" if b % p == 0 else "bad"] += 1
            assert table.verdict(d, a, b, budget) == certify.certify_specialization(spec, budget), (fid, d)
    assert all(classes[name] for name in ("good at infinity", "bad at infinity", "p | W", "bad", "undecided")), classes


def test_residue_forms_are_the_coordinates_mod_p():
    # a ResidueTable's forms of G(a, b), X = x(a/b) and Y = y(a/b)/b^k,
    # taken at (rho, 1), or at (1, 0) when p | b, give their values mod p up
    # to a unit power of lambda = b or a; thm4_3 has an x that vanishes at
    # infinity, cor3_2 an x with a pole there, and thm4_3 and rem4_6 a g of
    # odd degree
    for fid in FAMILY_IDS:
        fam = build(FamilySpec.make(fid))
        table = certify.ResidueTable(fam)
        k = (fam.g.degree + 1) // 2
        coords = [rf for pt in fam.points for rf in (pt.x, pt.y)]
        for p in (11, 13):
            assert table.undecided % p
            for a, b in ((1, p), (3, 2 * p), (2, 5), (7, 3)):
                rho, lam = _rho(a, b, p), (b if b % p else a)
                # G(a, b) = b^(2k) g(a/b), so p | G at infinity when deg g is odd
                g_at = eval_form(fam.g.ints, a, b, 2 * k)
                assert table._at(table.g, rho, p) * pow(lam, 2 * k, p) % p == g_at % p, (fid, p, a, b)
                for rf, (num, den, is_y) in zip(coords, table.coords):
                    den_at = table._at(den, rho, p)
                    if not den_at:
                        continue
                    value = rf.evaluate(Fraction(a, b)) / (b ** k if is_y else 1)
                    got = table._at(num, rho, p) * pow(den_at, -1, p) * pow(lam, -k if is_y else 0, p) % p
                    assert got == certify._mod_frac(value, p), (fid, p, a, b)


def _census_jobs(fid, grid):
    fam, form = _form(fid)
    return fam, [(d, a, b) for d, (a, b) in sorted(enumerate_S(form, grid=grid, x_max=None).witnesses.items())]


def test_the_census_reads_its_memoized_rows():
    fam, jobs = _census_jobs("thm4_5", 12)
    table = certify.ResidueTable(fam)
    before = [densitylab._certify_one(table, 60, *job) for job in jobs]
    d, rec = next(out for out in before if out[1]["certified"])
    a, b = next((a, b) for dd, a, b in jobs if dd == d)
    p = rec["primes"][0]
    key = (p, _rho(a, b, p), rec["ell"])
    assert any(table.rows[key])  # the first row of a proof
    table.rows[key] = [0] * len(fam.points)
    after = [densitylab._certify_one(table, 60, *job) for job in jobs]
    assert after != before
    assert dict(after)[d]["primes"] != rec["primes"]


def _record_specializations(monkeypatch):
    """The u0 the census specializes, appended as it calls specialize."""
    specialized = []
    specialize = certify.specialize

    def recording(fam, u0, d):
        specialized.append(u0)
        return specialize(fam, u0, d)

    monkeypatch.setattr(certify, "specialize", recording)
    return specialized


def test_an_undecided_prime_falls_back_to_the_exact_path(monkeypatch):
    specialized = _record_specializations(monkeypatch)
    fam, jobs = _census_jobs("thm4_5", 12)
    table = certify.ResidueTable(fam)
    d, a, b = jobs[3]
    _, rec = densitylab._certify_one(table, 60, d, a, b)
    assert rec["certified"] and not specialized
    p = rec["primes"][0]
    table.screens[p][_rho(a, b, p)] = certify._UNDECIDED
    assert densitylab._certify_one(table, 60, d, a, b) == (d, rec)
    assert specialized == [Fraction(a, b)]
    # u -> u/11 puts 11, the first table prime, into the cleared denominator
    # of g: it is undecided at every residue, so each D is specialized
    shift = RatFunc(UniPoly([0, Fraction(1, 11)]))
    pts = tuple(CurvePoint(pt.x.compose(shift), pt.y.compose(shift)) for pt in fam.points)
    scaled = TwistFamily(fam.base, compose(fam.g, shift).num, pts, 3, fam.provenance)
    report = enumerate_S(homog_form(scaled.g), grid=8, x_max=None)
    specialized.clear()
    records = certified_density(scaled, report, prime_budget=20).certifications
    assert len(specialized) == len(records) > 10
    for d, (a, b) in report.witnesses.items():
        exact = certify.certify_specialization(certify.specialize(scaled, Fraction(a, b), d), 20)
        assert records[d] == {"u0": str(Fraction(a, b)), "certified": exact.rank >= 3, **exact.to_json()}


def test_the_grid_50_census_specializes_at_most_once(monkeypatch):
    specialized = _record_specializations(monkeypatch)
    fam, form = _form("thm4_5")
    report = certified_density(fam, enumerate_S(form, grid=50, x_max=None))
    assert len(report.certifications) == 774
    assert specialized == [Fraction(1)]  # u0 = 1 is a pole of the second point


def test_wrong_d_is_a_witness_mismatch():
    fam, form = _form("thm4_5")
    rep = enumerate_S(form, grid=8, x_max=None)
    for d, (a, b) in sorted(rep.witnesses.items())[:4]:
        for wrong in (-d, 13 * d):
            _, rec = densitylab._certify_one(certify.ResidueTable(fam), 10, wrong, a, b)
            expected = '{"u0": "%s", "certified": false, "reason": "witness mismatch"}' % Fraction(a, b)
            assert json.dumps(rec) == expected, (d, wrong)


def test_internal_certify_errors_abort_the_census(monkeypatch):
    def wrong_count(mc, order, ell, reduced):
        raise CertifyError("point-count", f"#E(F_{mc.p}) = {order} is wrong (internal error)")

    monkeypatch.setattr(certify, "_ell_row", wrong_count)
    fam, form = _form("thm4_5")
    rep = enumerate_S(form, grid=8, x_max=None)
    with pytest.raises(CertifyError) as err:
        certified_density(fam, rep)
    assert err.value.check_name == "point-count"
    assert "is wrong (internal error)" in str(err.value)


def test_on_curve_is_checked_only_by_the_family_checks(monkeypatch):
    # structural_checks proves g*y^2 = f(x) over Q(u) once; no specialized
    # point is tested again
    fam, form = _form("thm4_5")
    report = enumerate_S(form, grid=12, x_max=None)
    callers = []
    on_twist = curves.on_twist

    def recording(d, f, pt):
        callers.append(any(frame.function == "validate_family" for frame in inspect.stack(0)))
        return on_twist(d, f, pt)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "twistlab" and getattr(module, "on_twist", None) is on_twist:
            monkeypatch.setattr(module, "on_twist", recording)
    report = certified_density(fam, report)
    assert len(report.certifications) > 20
    assert len(callers) == len(fam.points) and all(callers)


def test_report_json_round_trip_fields():
    _, form = _form("cor3_2")
    rep = with_fit(enumerate_S(form, grid=30, modulus=1, x_max=None, family="cor3_2"))
    data = rep.to_json()
    assert data["counts"] == list(rep.counts)
    assert data["pairs"] == [[x, c] for x, c in zip(rep.x_grid, rep.counts)]
    assert "slope" in data["fit"]


def test_invalid_arguments():
    fam, form = _form("cor3_2")
    with pytest.raises(DensityError):
        enumerate_S(form, grid=0)
    with pytest.raises(DensityError):
        enumerate_S(form, grid=5, modulus=0)
    with pytest.raises(DensityError):
        homog_form(UniPoly([3]))
    with pytest.raises(ValueError, match="must be positive"):
        certified_density(fam, enumerate_S(form, grid=3), prime_budget=0)
