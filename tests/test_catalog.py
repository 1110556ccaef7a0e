"""Catalog families: display goldens, constraints, crosschecks, the tower."""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import same_square_class, upoly
from twistlab.catalog import (
    CLAIMED_RANK,
    DEFAULT_PARAMS,
    EXPECTED_DEGREE,
    FAMILY_IDS,
    ConstraintError,
    FamilySpec,
    build,
    build_pipeline,
    crosscheck,
    golden_path,
    load_golden,
    rem4_6_tower,
    twist_identities,
)
from twistlab.exactmath import ONE, RatFunc, UniPoly, compose, square_class
from twistlab.jsonio import dump_json, family_to_json
from twistlab.twistforge import validate_family

F = Fraction

# coefficient-frozen expansions of the displayed twist polynomials at the
# default parameters (lowest degree first)
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

OFF_DEFAULT_PARAMS = (
    ("cor3_2", {"a": F(2), "b": F(3)}),
    ("cor3_3", {"b": F(1), "c": F(2)}),
    ("thm4_1", {"a": F(2)}),
    ("thm4_3", {"a": F(3), "b": F(2)}),
    ("thm4_2a", {"a": F(3)}),
    ("thm4_2b", {"a": F(-1)}),
    ("mestre3_4", {"a": F(2), "b": F(1)}),
)

# sha256 of the pretty-printed family JSON from (build, build_pipeline), for
# every family at its defaults and at each OFF_DEFAULT_PARAMS entry
CATALOG_SHA256 = {
    "cor3_2": (
        "1c10a907dcdd42e6bf61fe867b7358550ecd5bddc29023afb6718e50840bd9c8",
        "5b75241aac3feb4759b2a66269a6015796a85e5e3bbc4c063c5fc93ac7212af4",
    ),
    "cor3_3": (
        "146c7cb317bc96b3cc2389b59f7c2cbff517ca0152022f78e2d1fdab7400dc6c",
        "9d75115a85a24f2de7f2a1fd21f44a0e2047ee268fe70a576dc01e0558dc3605",
    ),
    "mestre3_4": (
        "6f02ca67bf3011b16ce8b71d769490914adf2a4944fcbc0e73f8510a858ac185",
        "f619f14c0f377bc7af77d1c13d664dd794061d158488b1708779e96b061b37cd",
    ),
    "thm4_1": (
        "b708f93df205972ec2af2041f9a42e96143a386f904b1467a9bff0bd6f08e266",
        "97ca303ff2d71663ff7a4a24766c8c1095f60579c10d41cda65ef891cef32884",
    ),
    "thm4_2a": (
        "ae82968c3bd411e9fb9037ab67c83a69ae0ae6c84c9f9147c84aeb9573c20ad7",
        "ae82968c3bd411e9fb9037ab67c83a69ae0ae6c84c9f9147c84aeb9573c20ad7",
    ),
    "thm4_2b": (
        "8d3f8c0a09b0d1807424b6dc296f416e9f20b3451b724f1632fee74ab5de0aea",
        "8d3f8c0a09b0d1807424b6dc296f416e9f20b3451b724f1632fee74ab5de0aea",
    ),
    "thm4_3": (
        "e8d8831aaaf9887bc4f2a0cd5de158795555d7699c7a5246177be512f1e05ac4",
        "1efbd51d31e3ec0e9b3e149f7c491ae2f8a2b32b5787ec5c65a36e0fadb43f96",
    ),
    "thm4_5": (
        "c9516deb4cca46c13431d87e2d5b65c08a82a93052b59db018a6b08f14c867f5",
        "d865fdd2ce45cf538406811956e4b83eb0433f6582032b63ffc15f31eee6ae51",
    ),
    "rem4_6": (
        "dced33d93505297df010b6b84b4d74c3affbe24b7b6e068b54a3cf508e094b47",
        "eb94436f6e69e015421ec02adc7ab43b6a46e14c66ba01caa640e6a11ebef189",
    ),
    "cor3_2 a=2 b=3": (
        "209b2b03f6dacf64a562f51d810801cc7bb0522cefc5b98fa7421c8bde43666e",
        "039143a73a4f7357cbcf84e54943c4c051135c54f4ab64b4e67758a77a6c77b3",
    ),
    "cor3_3 b=1 c=2": (
        "164ee978c5daa63c63b1b117fd6e033c95a9b916c5aeef911b99a3d121489602",
        "22e9a99737cbe23d5771690c18c97a07576b70a58ac69458d85fc0ef8d78ffda",
    ),
    "thm4_1 a=2": (
        "1b95fc50e62d9549f55b5d903e9ab3788616828bca00206088ed753c8b7c66f4",
        "79e5d8c1f24fa026df43e7f24c6a47618757d0ac305df38e4a42c00bf12fe4f0",
    ),
    "thm4_3 a=3 b=2": (
        "93522014819a5ac53c3efb73d13a2e9af660dff4572b53187d1366c8dbb88504",
        "c2f1b92c651a6504bbed2fb5f8d429902c9187fb3bd3676480b741055dbb6e29",
    ),
    "thm4_2a a=3": (
        "da7937963276991eaf8f45e895f15b00273bcef40b5dd9b42bb42e8a63877496",
        "da7937963276991eaf8f45e895f15b00273bcef40b5dd9b42bb42e8a63877496",
    ),
    "thm4_2b a=-1": (
        "650e150aa5e2aa41353561546dfc5d92564c1dc94718da830ace22aa0261da0b",
        "650e150aa5e2aa41353561546dfc5d92564c1dc94718da830ace22aa0261da0b",
    ),
    "mestre3_4 a=2 b=1": (
        "4e15d69a4e0ad8ae013442f1ccbccdc4268d28374fc835c770961afee6d78cd2",
        "1b2410068fdbba39345d263ca944813e6cc2a482476c8c91135257ed068f214f",
    ),
}


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_structure_and_degree(fid):
    fam = build(FamilySpec.make(fid))
    assert fam.g.degree == EXPECTED_DEGREE[fid]
    assert fam.claimed_rank == CLAIMED_RANK[fid]
    assert validate_family(fam) == []


@pytest.mark.parametrize("fid", sorted(DISPLAY_G))
def test_display_polynomials_coefficient_exact(fid):
    fam = build(FamilySpec.make(fid))
    assert list(fam.g.coeffs) == [F(c) for c in DISPLAY_G[fid]]


@pytest.mark.parametrize("fid", ["cor3_2", "cor3_3", "thm4_1", "thm4_5"])
def test_displayed_points_on_curve(fid):
    fam = build(FamilySpec.make(fid))
    curve = fam.curve()
    for p in fam.points:
        assert curve.contains(p)
        assert p.has_nonconstant_x()


def test_thm4_5_displayed_point_values():
    fam = build(FamilySpec.make("thm4_5"))
    xs = {p.x for p in fam.points}
    assert RatFunc(upoly(-1, 0, 6, 0, -1), upoly(1, 0, 1) ** 2 * 3) in xs
    assert RatFunc(upoly(-1, 0, -6, 0, -1), upoly(-1, 0, 1) ** 2 * 3) in xs
    assert RatFunc(upoly(1, 0, 0, 0, 1), upoly(0, 0, 6)) in xs


def test_cor3_2_displayed_point_values():
    fam = build(FamilySpec.make("cor3_2"))
    assert fam.points[0].x == RatFunc(upoly(-4, 0, -1), upoly(2))
    assert fam.points[0].y == RatFunc(ONE, upoly(4))
    assert fam.points[1].x == RatFunc(upoly(-8, 0, -2), upoly(0, 0, 1))
    assert fam.points[1].y == RatFunc(upoly(2), upoly(0, 0, 0, 1))


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_crosscheck_square_class_and_points(fid):
    report = crosscheck(FamilySpec.make(fid))
    assert report.g_square_class_matches
    assert all(m["matched"] for m in report.point_matches)
    assert report.ok


def test_crosscheck_off_default_parameters():
    for fid, params in OFF_DEFAULT_PARAMS:
        report = crosscheck(FamilySpec.make(fid, params))
        assert report.ok, (fid, params, report.messages)


def test_catalog_output_digests():
    cases = [(fid, {}) for fid in FAMILY_IDS] + list(OFF_DEFAULT_PARAMS)
    assert len(cases) == len(CATALOG_SHA256)
    for fid, params in cases:
        key = " ".join([fid] + [f"{k}={v}" for k, v in params.items()])
        spec = FamilySpec.make(fid, params)
        digests = tuple(
            hashlib.sha256(dump_json(family_to_json(route(spec))).encode()).hexdigest()
            for route in (build, build_pipeline)
        )
        assert digests == CATALOG_SHA256[key], key


def test_constraint_gates():
    with pytest.raises(ConstraintError):
        FamilySpec.make("thm4_1", {"a": 0})
    with pytest.raises(ConstraintError):
        FamilySpec.make("cor3_2", {"a": 2, "b": 1})  # a^2 = 4b
    with pytest.raises(ConstraintError):
        FamilySpec.make("cor3_2", {"a": 0})
    with pytest.raises(ConstraintError):
        FamilySpec.make("cor3_3", {"b": 6, "c": 2})  # b^3 = 54 c^2
    with pytest.raises(ConstraintError):
        FamilySpec.make("thm4_2a", {"a": 1})
    with pytest.raises(ConstraintError):
        FamilySpec.make("thm4_2b", {"a": 2})
    with pytest.raises(ConstraintError):
        FamilySpec.make("thm4_2b", {"a": F(-1, 2)})  # lambda = 1
    with pytest.raises(ConstraintError):
        FamilySpec.make("thm4_3", {"a": 1})
    with pytest.raises(ConstraintError):
        FamilySpec.make("thm4_3", {"a": -1})
    with pytest.raises(ConstraintError):
        FamilySpec.make("mestre3_4", {"a": -3, "b": 2})  # 4a^3 + 27b^2 = 0
    with pytest.raises(ConstraintError):
        FamilySpec.make("nonesuch")
    with pytest.raises(ConstraintError):
        FamilySpec.make("thm4_5", {"zz": 1})


def test_twist_identities_per_family():
    for fid in FAMILY_IDS:
        tids = twist_identities(FamilySpec.make(fid))
        for tid in tids:
            assert compose(tid.f, tid.h) == RatFunc(tid.k * tid.f) * tid.j * tid.j
            assert tid.k.degree == 1
        if fid in ("mestre3_4", "rem4_6"):
            assert tids == []
        elif CLAIMED_RANK[fid] == 3:
            assert len(tids) == 2
        else:
            assert len(tids) == 1


def test_thm4_1_identity_k_displays():
    lam = F(-2)
    tids = twist_identities(FamilySpec.make("thm4_1"))
    k_set = {tid.k for tid in tids}
    display_1 = upoly(1, lam - 2) * (1 - lam)
    display_2 = upoly(-lam * lam, 2 * lam - 1) * (lam * (1 - lam))
    matched = set()
    for k in k_set:
        for disp in (display_1, display_2):
            if same_square_class(k, disp):
                matched.add(disp.coeffs)
    assert len(matched) == 2


def test_thm4_5_identity_k_displays():
    tids = twist_identities(FamilySpec.make("thm4_5"))
    ks = {tid.k for tid in tids}
    # the displayed pair is (6t+2, -6t+2); the first carries a sign slip in
    # print, the honest classes are -(6t+2) and -6t+2
    assert ks == {upoly(-2, -6), upoly(2, -6)}


def test_golden_files_frozen():
    for fid in ("thm4_2a", "thm4_2b", "thm4_3"):
        live = family_to_json(build(FamilySpec.make(fid)))
        with golden_path(fid).open() as fh:
            frozen = json.load(fh)
        assert live == frozen
        fam = load_golden(fid)
        assert validate_family(fam) == []


def test_thm4_2_quartic_factorization():
    for fid in ("thm4_2a", "thm4_2b"):
        fam = build_pipeline(FamilySpec.make(fid))
        factor_polys = [
            UniPoly([F(c) for c in fp]) for fp in fam.provenance["factor_polys"]
        ]
        assert len(factor_polys) == 3
        assert all(fp.degree == 4 for fp in factor_polys)
        product = ONE
        for fp in factor_polys:
            product = product * fp
        assert same_square_class(product, fam.g)
        assert fam.g.degree == 12


def test_thm4_3_display_vs_pipeline():
    fam = build(FamilySpec.make("thm4_3"))
    pipe = build_pipeline(FamilySpec.make("thm4_3"))
    assert fam.g.degree == 11 and pipe.g.degree == 11
    assert same_square_class(fam.g, pipe.g)


def test_rem4_6_tower():
    fam1, fam2, fam3 = rem4_6_tower()
    assert (fam1.g.degree, fam2.g.degree, fam3.g.degree) == (3, 6, 12)
    assert (fam1.genus_upper(), fam2.genus_upper(), fam3.genus_upper()) == (1, 2, 5)
    assert (fam1.claimed_rank, fam2.claimed_rank, fam3.claimed_rank) == (1, 2, 3)
    for fam in (fam1, fam2, fam3):
        assert validate_family(fam) == []
    assert fam2.g == fam1.g.substitute_power(2)
    assert fam3.g == fam1.g.substitute_power(4)
    # the ceiling of the pattern is documentation, not a family
    assert "rank 3, not 4" in fam1.provenance["notes"]


def test_tower_rank2_points_descend_from_degree12_family():
    _, fam2, fam3 = rem4_6_tower()
    for p2 in fam2.points:
        lifted_x = p2.x.compose(RatFunc(upoly(0, 0, 1)))
        assert lifted_x in {p3.x for p3 in fam3.points}


def test_mestre_pipeline_matches_display_exactly():
    spec = FamilySpec.make("mestre3_4")
    assert build(spec).g == build_pipeline(spec).g
