"""CLI behavior: exit codes, JSON round-trips, determinism, tamper detection."""

import json
from pathlib import Path

import pytest

from twistlab.catalog import FamilySpec, build
from twistlab.cli import run
from twistlab.jsonio import dump_json, family_from_json, family_to_json, load_json


def _capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_catalog_list(capsys):
    assert run(["catalog-list"]) == 0
    out, _ = _capture(capsys)
    assert "thm4_5" in out and "cor3_2" in out


def test_catalog_build_json(capsys, tmp_path):
    path = tmp_path / "fam.json"
    assert run(["catalog-build", "--id", "thm4_5", "--json", "--out", str(path)]) == 0
    out, _ = _capture(capsys)
    payload = json.loads(out)
    assert payload["claimed_rank"] == 3
    assert payload["g"][0] == "6" and payload["g"][-1] == "6"
    assert len(payload["points"]) == 3
    assert json.loads(path.read_text()) == payload


def test_family_json_round_trip(tmp_path):
    fam = build(FamilySpec.make("thm4_1"))
    payload = family_to_json(fam)
    text = dump_json(payload, path=tmp_path / "f.json")
    reloaded = family_from_json(load_json(tmp_path / "f.json"))
    assert reloaded == fam
    assert dump_json(family_to_json(reloaded)) == text


def test_certify_ok_and_deterministic(capsys, tmp_path):
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "cor3_2", "--out", str(path), "--json"])
    _capture(capsys)
    assert run(["certify", "--family", str(path), "--json"]) == 0
    first, _ = _capture(capsys)
    assert run(["certify", "--family", str(path), "--json"]) == 0
    second, _ = _capture(capsys)
    assert first == second
    cert = json.loads(first)
    assert cert["certified_lower"] == 2


def test_certify_corrupted_point_exits_1(capsys, tmp_path):
    fam = build(FamilySpec.make("thm4_5"))
    payload = family_to_json(fam)
    payload["points"][0]["x"]["num"][0] = "5"  # tamper
    path = tmp_path / "bad.json"
    dump_json(payload, path=path)
    assert run(["certify", "--family", str(path), "--json"]) == 1
    out, err = _capture(capsys)
    assert "on-curve[1]" in out + err


def test_certify_rejects_wrong_provenance_degree(capsys, tmp_path):
    payload = family_to_json(build(FamilySpec.make("thm4_5")))
    for degree in (-3, "12", True):
        payload["provenance"]["degree"] = degree
        path = tmp_path / "bad.json"
        dump_json(payload, path=path)
        assert run(["certify", "--family", str(path), "--json"]) == 1, degree
        out, _ = _capture(capsys)
        assert json.loads(out)["failed_check"] == "g-degree", degree


def test_specialize_cli(capsys, tmp_path):
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "thm4_5", "--out", str(path), "--json"])
    _capture(capsys)
    assert run(["specialize", "--family", str(path), "--u0", "2", "--json"]) == 0
    out, _ = _capture(capsys)
    data = json.loads(out)
    assert data["d"] == -29274
    assert run(["specialize", "--family", str(path), "--u0", "0"]) == 1


def test_density_cli_end_to_end(capsys, tmp_path):
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "thm4_5", "--out", str(path), "--json"])
    _capture(capsys)
    code = run(
        ["density", "--family", str(path), "--grid", "8", "--x-max", "1000000", "--certify", "--json"]
    )
    assert code == 0
    out, _ = _capture(capsys)
    data = json.loads(out)
    assert data["grid"] == 8
    assert all(c2 <= c1 for c1, c2 in zip(data["counts"], data["certified_counts"]))
    assert data["witnesses"]
    # every witness replays to its D
    for d_str, (a, b) in data["witnesses"].items():
        assert abs(int(d_str)) < 1000000


def test_forge_commands(capsys, tmp_path):
    assert run(["forge-rank3", "--id", "thm4_5", "--json"]) == 0
    _capture(capsys)
    assert run(["forge-rank2", "--id", "cor3_3", "--json"]) == 0
    _capture(capsys)
    assert run(["forge-rank2", "--id", "thm4_5"]) == 2  # wrong rank for the command
    _capture(capsys)


def test_crosscheck_cli(capsys):
    assert run(["crosscheck", "--id", "thm4_1", "--json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out)["ok"] is True


def test_usage_errors(capsys, tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run(["catalog-build", "--id", "thm4_5", "--frobnicate"])
    assert exc.value.code == 2
    _capture(capsys)
    with pytest.raises(SystemExit) as exc:
        run(["catalog-build", "--id", "nonsense"])
    assert exc.value.code == 2
    _capture(capsys)
    assert run(["catalog-build", "--id", "thm4_1", "--params", "a=0"]) == 2
    _capture(capsys)
    assert run(["catalog-build", "--id", "thm4_1", "--params", "a=zebra"]) == 2
    _capture(capsys)
    assert run(["certify", "--family", str(tmp_path / "missing.json")]) == 2
    _capture(capsys)
    assert run(["catalog-build", "--id", "thm4_1", "--params", "a=1/0"]) == 2
    _capture(capsys)
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "thm4_5", "--out", str(path)])
    _capture(capsys)
    assert run(["specialize", "--family", str(path), "--u0", "1/0"]) == 2
    _, err = _capture(capsys)
    assert "zero denominator" in err
    payload = load_json(path)
    del payload["curve"]["e0"]
    good = load_json(path)
    for bad, field in (
        (payload, "'curve'"),
        ([payload], "object"),
        ({**good, "claimed_rank": 2.9}, "'claimed_rank'"),
        ({**good, "claimed_rank": "2"}, "'claimed_rank'"),
        ({**good, "claimed_rank": True}, "'claimed_rank'"),
        ({**good, "claimed_rank": -1}, "'claimed_rank'"),
        ({**good, "provenance": []}, "'provenance'"),
        ({**good, "provenance": [["family", "x"]]}, "'provenance'"),
        ({**good, "g": [0.1] + good["g"][1:]}, "'g'"),
        ({**good, "g": "123"}, "'g'"),
        ({**good, "curve": {**good["curve"], "e1": -1}}, "'curve'"),
        ({**good, "points": [{"infinity": "no"}]}, "'infinity'"),
        ({**good, "points": [{"infinity": 1}]}, "'infinity'"),
    ):
        dump_json(bad, path=tmp_path / "bad.json")
        assert run(["certify", "--family", str(tmp_path / "bad.json")]) == 2, bad
        _, err = _capture(capsys)
        assert field in err
    for factor_polys in (5, [["1/0"]], [[0.1, 1]], [["1"], []]):
        dump_json({**good, "provenance": {**good["provenance"], "factor_polys": factor_polys}}, path=tmp_path / "bad.json")
        assert run(["density", "--family", str(tmp_path / "bad.json"), "--grid", "5"]) == 2, factor_polys
        _, err = _capture(capsys)
        assert "'factor_polys'" in err
    density = ["density", "--family", str(path), "--grid", "2"]
    for argv in (
        ["density", "--family", str(path), "--grid", "0"],
        density + ["--modulus", "0"],
        density + ["--x-max", "0"],
        density + ["--certify", "--primes", "0"],
        density + ["--certify", "--primes", "-3"],
        density + ["--certify", "--threads", "-1"],
        density + ["--certify", "--bound", "10"],
        ["certify", "--family", str(path), "--samples", "0"],
        ["certify", "--family", str(path), "--primes", "0"],
        ["certify", "--family", str(path), "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        _, err = _capture(capsys)
        assert "error:" in err
    # a bad TWISTLAB_THREADS fails only the command that reads it
    monkeypatch.setenv("TWISTLAB_THREADS", "abc")
    assert run(["catalog-list"]) == 0
    _capture(capsys)
    with pytest.raises(SystemExit) as exc:
        run(density)
    assert exc.value.code == 2
    _, err = _capture(capsys)
    assert "--threads" in err


def test_repeated_parameter_rejected(capsys):
    assert run(["catalog-build", "--id", "cor3_2", "--params", "a=1,a=3"]) == 2
    _, err = _capture(capsys)
    assert "'a'" in err
    assert run(["catalog-build", "--id", "cor3_2", "--params", "a=3,b=2"]) == 0


def test_inputs_never_mutated(capsys, tmp_path):
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "cor3_2", "--out", str(path), "--json"])
    _capture(capsys)
    before = Path(path).read_bytes()
    run(["certify", "--family", str(path), "--json"])
    _capture(capsys)
    run(["density", "--family", str(path), "--grid", "5", "--json"])
    _capture(capsys)
    assert Path(path).read_bytes() == before
