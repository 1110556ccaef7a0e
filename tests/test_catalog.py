"""Catalog families: display goldens, constraints, crosschecks, the tower."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import same_square_class, upoly
from twistlab import catalog
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
    rem4_6_tower,
    twist_identities,
)
from twistlab.certify import certify_family
from twistlab.cli import run
from twistlab.curves import CurvePoint
from twistlab.exactmath import ONE, RatFunc, UniPoly, compose, square_class
from twistlab.jsonio import dump_json, family_from_json, family_to_json, load_json
from twistlab.twistforge import TwistFamily, genus_upper_bound, validate_family

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


# sha256 of the pretty-printed certificate JSON and crosscheck payload, for
# the same cases as CATALOG_SHA256
CERT_CROSSCHECK_SHA256 = {
    "cor3_2": (
        "a7482bc6bb4ed1d32a0bc6c94f7ba6fe72d264b261407e2ae0719c850a7418b5",
        "faf8f4b152b28559d063caf993fd486fb495b1eb6520f426b3991b80da3ca668",
    ),
    "cor3_3": (
        "7889d158dcb38af78e8964847d170a4e7655b05a219880dd257685eb35c15295",
        "b443c56051c12366c96da490a00f51a31ad7a9841e232f47bbe1c51890d13d3c",
    ),
    "mestre3_4": (
        "12ecbfce4c731ce5874a4ea7abb7498c823d09c62a9c7668086b66f6390ccae2",
        "22d04dec16920d0fbb6bcf00d3f89c14141433701784737dfab4ec30b42117db",
    ),
    "thm4_1": (
        "dd6fd1a8a55f7419e5a5e702c0be891c0106b4f143fa961f25f33958d909a7db",
        "b166fe83967d3f99de4362ea559e1b9c765896873a57d07b58cce44e61be588f",
    ),
    "thm4_2a": (
        "55c887fc9ecff762a4de8221a1636341d8bb75662b9674b9687df73a8973718f",
        "ce4929a178ca1d7e45a81bd692e544823c1a61dd6f37b3f41f0bde72ddcbb343",
    ),
    "thm4_2b": (
        "18fbca407fe305f89597669ece4a79ee276a794346a63a53cc28c2094c54eee8",
        "d4943d8849f1f8f3a54cb7aed78d0c95bd9305455c09eb09f81c767f006f1b17",
    ),
    "thm4_3": (
        "bf18106a4b6c740846924a1145719c092975d00c1550bb8395f5d32f1f4e539e",
        "b14b871513503ab5ac31895bd69e043d263cee86c036f58f1d45b1c002c885a6",
    ),
    "thm4_5": (
        "dc55ec07359367e47f4390c5f1f432d5c47e30e6a0750eaa93637e169ac72021",
        "561ea6ef5d411a79d16fcc3b2982a6f595f7c91231fe5dbc5dd66de870e0f6bd",
    ),
    "rem4_6": (
        "3589ea6c3debd79880b9c24ff265cffea427b38743408aac9a6606784ce7f44b",
        "1b3cd2f5313fa3e99efaae58957e1a4480e68e7c744df38fed0dc67cb06ba47f",
    ),
    "cor3_2 a=2 b=3": (
        "bcb36eaa7fb103a70fe931829b7ca7df5b89c961852fa0fe5fb7562d759161b4",
        "1323f6dd65e283e4bc270c2bef5b16beebc7be4df23ec06a96bc878dcedabf82",
    ),
    "cor3_3 b=1 c=2": (
        "c6a866bf416911938a024d7410abe5fa8dd6fd6d86535fef7bd6c04938a49ba3",
        "0695c3066f367ee4ad7ed621a79c7b3dd0417ba11e8d048ccbfafc564f7105f7",
    ),
    "thm4_1 a=2": (
        "6b235a3332d1da9e3b21891ee91d1f3f8d5c8606d65bc639e9f326a5c1f480aa",
        "db0b56dd3a31a991d7ada82be800431c611c6424ebc6715c8a9025f8df018a76",
    ),
    "thm4_3 a=3 b=2": (
        "cc9f1cad0505bb191929e4e6d3310ff35de21d9733f8f51bcc95a9393be45f82",
        "5eccf4196300cc55c8c6cfacc195abdb5f625c3dc89674ab62ec02d99e5a892e",
    ),
    "thm4_2a a=3": (
        "168bb705a8b28453e5ac89e476b84fbfddb19ecf60ebab20bf3665db96c93c04",
        "5e037c9249c7478f2d430671a1b552793b48e9df7400483f459b0c960e30579e",
    ),
    "thm4_2b a=-1": (
        "f1bb890b7f41ecb51ee0feae2e8220c73397597ba9a68830253c8961c8ed2103",
        "4289db2e49e94b00d4bda447244a8c04a0588e780926c39da244fe03ead2466a",
    ),
    "mestre3_4 a=2 b=1": (
        "6ec2b1b7c453490af58f0b9e4a0a23e4ea597b06fa3e8b09402df364a71a15aa",
        "731d638d0df0a44e85e6474206df04d4cb3bfb12d6eb17de7a634183715bb1da",
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
    assert report["g_square_class_matches"]
    assert all(m["matched"] for m in report["point_matches"])
    assert report["ok"]


@pytest.mark.parametrize("fid", ["cor3_2", "thm4_5"])
def test_crosscheck_report_is_its_json(fid):
    report = crosscheck(FamilySpec.make(fid))
    assert report == json.loads(dump_json(report))


def test_crosscheck_off_default_parameters():
    for fid, params in OFF_DEFAULT_PARAMS:
        report = crosscheck(FamilySpec.make(fid, params))
        assert report["ok"], (fid, params, report["messages"])


def test_crosscheck_reports_unmatched_point(monkeypatch, capsys):
    # P1 + (0, 0) shares no x with a pipeline point; only a 2-torsion search would pair them
    fam = build(FamilySpec.make("thm4_5"))
    curve = fam.curve()
    shifted = curve.add(fam.points[0], CurvePoint(RatFunc(0), RatFunc(0)))
    assert curve.contains(shifted) and shifted.x != fam.points[0].x
    tampered = TwistFamily(fam.base, fam.g, (shifted,) + fam.points[1:], fam.claimed_rank, fam.provenance)
    monkeypatch.setattr(catalog, "build", lambda spec, pipe=None: tampered)
    report = crosscheck(FamilySpec.make("thm4_5"))
    assert not report["ok"]
    assert report["point_matches"][0] == {"point": 1, "matched": False, "via": "none"}
    assert [m["via"] for m in report["point_matches"][1:]] == ["exact", "exact"]
    assert report["messages"] == ["catalog point 1 not matched by any pipeline point"]
    assert report == json.loads(dump_json(report))
    assert run(["crosscheck", "--id", "thm4_5"]) == 1
    capsys.readouterr()


def test_crosscheck_reports_a_g_off_the_square_class(monkeypatch, capsys):
    fam = build(FamilySpec.make("thm4_5"))
    tampered = TwistFamily(fam.base, fam.g * 2, fam.points, fam.claimed_rank, fam.provenance)
    monkeypatch.setattr(catalog, "build", lambda spec, pipe=None: tampered)
    report = crosscheck(FamilySpec.make("thm4_5"))
    assert not report["ok"] and not report["g_square_class_matches"]
    assert report["point_matches"] == []
    assert report["messages"] == ["g square-class quotient is 2, not 1"]
    assert run(["crosscheck", "--id", "thm4_5"]) == 1
    assert capsys.readouterr().out.startswith("crosscheck thm4_5: MISMATCH\ng square-class quotient is 2, not 1\n")


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


def test_params_must_be_exact_rationals():
    # a float would silently become its binary expansion, 0.1 the fraction
    # 3602879701896397/36028797018963968, and a string would be parsed
    for value in (0.1, " 3/4 ", "2", None):
        with pytest.raises(ConstraintError, match="parameter 'a' of thm4_2a must be an int or Fraction"):
            FamilySpec.make("thm4_2a", {"a": value})
    assert FamilySpec.make("thm4_2a", {"a": 3}).params["a"] == FamilySpec.make("thm4_2a", {"a": F(3)}).params["a"] == 3


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


GOLDEN_VERSION = "v1"


def golden_path(family_id: str) -> Path:
    """Path of the frozen pipeline output for families whose points are derived."""
    return Path(__file__).parent / "golden" / GOLDEN_VERSION / f"{family_id}.json"


def load_golden(family_id: str) -> TwistFamily:
    return family_from_json(load_json(golden_path(family_id)))


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
    assert tuple(genus_upper_bound(fam.g) for fam in (fam1, fam2, fam3)) == (1, 2, 5)
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


def test_certificate_and_crosscheck_digests():
    cases = [(fid, {}) for fid in FAMILY_IDS] + list(OFF_DEFAULT_PARAMS)
    assert len(cases) == len(CERT_CROSSCHECK_SHA256)
    for fid, params in cases:
        key = " ".join([fid] + [f"{k}={v}" for k, v in params.items()])
        spec = FamilySpec.make(fid, params)
        payloads = (certify_family(build(spec)), crosscheck(spec))
        digests = tuple(hashlib.sha256(dump_json(p).encode()).hexdigest() for p in payloads)
        assert digests == CERT_CROSSCHECK_SHA256[key], key
