"""Squarefree-twist counting: forms, enumeration, fitting, certification."""

import math
import random
from fractions import Fraction

import pytest

from twistlab.catalog import FamilySpec, build
from twistlab.densitylab import (
    DensityError,
    DensityReport,
    certified_density,
    enumerate_S,
    fit_exponent,
    homog_form,
    with_fit,
)
from twistlab.exactmath import UniPoly, squarefree_part_int


def _form(fid):
    fam = build(FamilySpec.make(fid))
    return fam, homog_form(fam.g, fam.provenance.get("factor_polys"))


def test_eval_form_reproduces_g():
    fam, form = _form("thm4_5")
    assert form.k == 6
    assert form.evaluate(2, 1) == -29274
    assert form.evaluate(0, 1) == 6  # the constant coefficient
    # F(a, 1) = g(a)
    for a in range(1, 6):
        assert form.evaluate(a, 1) == UniPoly(fam.g.coeffs)(Fraction(a))


def test_form_homogeneity():
    _, form = _form("thm4_5")
    for a, b in ((1, 2), (3, 5), (2, 7)):
        assert form.evaluate(2 * a, 2 * b) == 2 ** (2 * form.k) * form.evaluate(a, b)


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
            direct = form.evaluate(a, b)
            got = form.squarefree_value(a, b)
            if direct == 0:
                assert got is None
            else:
                assert got == squarefree_part_int(direct)


def test_single_cell_grid():
    _, form = _form("thm4_5")
    rep = enumerate_S(form, grid=1, modulus=1, x_max=10 ** 9)
    assert set(rep.witnesses) == {squarefree_part_int(form.evaluate(1, 1))}
    assert rep.witnesses[squarefree_part_int(form.evaluate(1, 1))] == (1, 1)


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
    assert form.evaluate(1, 2) == form.evaluate(2, 1) == -29274
    rep = enumerate_S(form, grid=2, modulus=1, x_max=None)
    assert rep.witnesses[-29274] == (1, 2)


def test_congruence_filter():
    _, form = _form("cor3_2")
    rep = enumerate_S(form, grid=9, modulus=3, x_max=None)
    for a, b in rep.witnesses.values():
        assert a % 3 == 1 and b % 3 == 1


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


def test_certified_density_threads_match_sequential():
    fam, form = _form("thm4_5")
    rep = enumerate_S(form, grid=6, modulus=1, x_max=None, family="thm4_5")
    seq = certified_density(fam, rep, prime_budget=10, threads=1)
    par = certified_density(fam, rep, prime_budget=10, threads=2)
    assert seq.certified_counts == par.certified_counts
    assert seq.certifications == par.certifications


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
