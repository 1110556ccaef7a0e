"""CLI behavior: exit codes, JSON round-trips, determinism, tamper detection."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from twistlab.catalog import FAMILY_IDS, ConstraintError, FamilySpec, build
from twistlab.certify import BadPrimeError, CertifyError, certify_family
from twistlab.cli import run
from twistlab.curves import INFINITY, CurveError, CurvePoint
from twistlab.densitylab import DensityError
from twistlab.exactmath import CheckError, ExactMathError, RatFunc, UniPoly
from twistlab.jsonio import dump_json, family_from_json, family_to_json, load_json
from twistlab.twistforge import ForgeError, TwistFamily


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


def test_certify_json_is_certify_family(capsys, tmp_path):
    path = tmp_path / "fam.json"
    fam = build(FamilySpec.make("thm4_5"))
    dump_json(family_to_json(fam), path=path)
    assert run(["certify", "--family", str(path), "--json"]) == 0
    out, _ = _capture(capsys)
    assert json.loads(out) == certify_family(fam)


def test_certify_short_of_claimed_rank_exits_1(capsys, tmp_path):
    # thm4_5 without its third point still claims rank 3
    payload = family_to_json(build(FamilySpec.make("thm4_5")))
    del payload["points"][2]
    path = tmp_path / "two.json"
    dump_json(payload, path=path)
    assert run(["certify", "--family", str(path), "--json"]) == 1
    out, err = _capture(capsys)
    assert json.loads(out)["certified_lower"] == 2
    assert err == "proved rank 2 is short of the claimed rank 3\n"
    out_path = tmp_path / "cert.json"
    assert run(["certify", "--family", str(path), "--out", str(out_path)]) == 1
    text_out, err = _capture(capsys)
    assert text_out.startswith("family thm4_5: certified rank >= 2, genus bound 5\n")
    assert err == f"wrote {out_path}\nproved rank 2 is short of the claimed rank 3\n"
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_certify_corrupted_point_exits_1(capsys, tmp_path):
    fam = build(FamilySpec.make("thm4_5"))
    payload = family_to_json(fam)
    payload["points"][0]["x"]["num"][0] = "5"  # tamper
    path = tmp_path / "bad.json"
    dump_json(payload, path=path)
    assert run(["certify", "--family", str(path), "--json"]) == 1
    out, err = _capture(capsys)
    assert "on-curve[1]" in out + err


def test_certify_point_at_infinity_exits_1(capsys, tmp_path):
    # a well-formed point at infinity parses, then fails the family check
    payload = family_to_json(build(FamilySpec.make("thm4_5")))
    payload["points"][1] = {"infinity": True}
    path = tmp_path / "inf.json"
    dump_json(payload, path=path)
    assert run(["certify", "--family", str(path), "--json"]) == 1
    out, _ = _capture(capsys)
    assert json.loads(out)["failed_check"] == "nonconstant-x[2]"


def _tampered_thm4_5():
    # point 1 at infinity, and point 2 with its x shifted by 1
    fam = build(FamilySpec.make("thm4_5"))
    pts = list(fam.points)
    pts[1] = CurvePoint(pts[1].x + 1, pts[1].y)

    def with_points(points):
        return family_to_json(TwistFamily(fam.base, fam.g, points, fam.claimed_rank, fam.provenance))

    return [(with_points((INFINITY,) + fam.points[1:]), "nonconstant-x[1]"), (with_points(tuple(pts)), "on-curve[2]")]


@pytest.mark.parametrize(
    "command", [["specialize", "--u0", "2"], ["density", "--grid", "4", "--certify"]], ids=["specialize", "density"]
)
def test_family_checks_run_before_specializing(capsys, tmp_path, command):
    # specialize and density --certify fail on a bad point as certify does
    path = tmp_path / "bad.json"
    for payload, check in _tampered_thm4_5():
        dump_json(payload, path=path)
        assert run(["certify", "--family", str(path), "--json"]) == 1
        assert json.loads(_capture(capsys)[0])["failed_check"] == check
        assert run([command[0], "--family", str(path), *command[1:]]) == 1
        out, err = _capture(capsys)
        assert out == "" and err == f"check failed: certification aborted at check '{check}'\n"


def test_certify_rejects_wrong_provenance_degree(capsys, tmp_path):
    payload = family_to_json(build(FamilySpec.make("thm4_5")))
    for degree in (-3, "12", True):
        payload["provenance"]["degree"] = degree
        path = tmp_path / "bad.json"
        dump_json(payload, path=path)
        assert run(["certify", "--family", str(path), "--json"]) == 1, degree
        out, _ = _capture(capsys)
        assert json.loads(out)["failed_check"] == "g-degree", degree


def test_certify_rejects_a_g_with_a_square_factor(capsys, tmp_path):
    # cor3_2 on g*(u + 1)^2, each y divided by u + 1: every point stays on its twist
    fam = build(FamilySpec.make("cor3_2"))
    s = RatFunc(UniPoly([1, 1]))
    pts = tuple(CurvePoint(p.x, p.y / s) for p in fam.points)
    path = tmp_path / "square.json"
    squared = TwistFamily(fam.base, fam.g * s.num ** 2, pts, fam.claimed_rank, fam.provenance)
    dump_json(family_to_json(squared), path=path)
    assert run(["certify", "--family", str(path), "--json"]) == 1
    out, err = _capture(capsys)
    assert json.loads(out)["failed_check"] == "g-squarefree"
    assert err == "certification failed at check: g-squarefree\n"


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


def test_density_no_witnesses_drops_only_the_witnesses(capsys, tmp_path):
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "thm4_5", "--out", str(path), "--json"])
    _capture(capsys)
    argv = ["density", "--family", str(path), "--grid", "5", "--certify", "--json"]
    assert run(argv) == 0
    full = json.loads(_capture(capsys)[0])
    assert run(argv + ["--no-witnesses"]) == 0
    lean = json.loads(_capture(capsys)[0])
    assert full["witnesses"] and full["certifications"]
    assert lean == {k: v for k, v in full.items() if k not in ("witnesses", "certifications")}


def test_density_threads_change_nothing_and_start_no_process(capsys, tmp_path, monkeypatch):
    import concurrent.futures
    import os

    def no_process(*args, **kwargs):
        raise AssertionError("the census started a process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "thm4_5", "--out", str(path), "--json"])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"census{threads}.json"
        argv = ["density", "--family", str(path), "--grid", "8", "--certify", "--threads", threads, "--out", str(out)]
        assert run(argv) == 0
        outputs.append(out.read_bytes())
    _capture(capsys)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["certifications"]) == 22


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


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["catalog-build", "--id", "thm4_5", "--frobnicate"])
    assert exc.value.code == 2
    _capture(capsys)
    with pytest.raises(SystemExit) as exc:
        run(["catalog-build", "--id", "nonsense"])
    assert exc.value.code == 2
    _, err = _capture(capsys)
    # the choices come from catalog, which the parser loads only for this command
    assert "argument --id: invalid choice: 'nonsense'" in err
    choices = err.split("choose from", 1)[1]
    assert len(FAMILY_IDS) == 9 and all(fid in choices for fid in FAMILY_IDS)
    assert run(["catalog-build", "--id", "thm4_1", "--params", "a=0"]) == 2
    _capture(capsys)
    assert run(["catalog-build", "--id", "thm4_1", "--params", "a=zebra"]) == 2
    _capture(capsys)
    assert run(["certify", "--family", str(tmp_path / "missing.json")]) == 2
    _capture(capsys)
    # a directory where a file belongs is an unreadable input, not a failed check
    assert run(["certify", "--family", str(tmp_path)]) == 2
    _, err = _capture(capsys)
    assert "error:" in err
    assert run(["catalog-build", "--id", "thm4_5", "--out", str(tmp_path)]) == 2
    out, err = _capture(capsys)
    assert "error:" in err
    assert out == ""  # --out is written before anything is printed
    assert run(["catalog-build", "--id", "thm4_1", "--params", "a=1/0"]) == 2
    _capture(capsys)
    path = tmp_path / "fam.json"
    run(["catalog-build", "--id", "thm4_5", "--out", str(path)])
    _capture(capsys)
    assert run(["specialize", "--family", str(path), "--u0", "1/0"]) == 2
    _, err = _capture(capsys)
    assert "zero denominator" in err
    assert run(["specialize", "--family", str(path), "--u0", "1e3"]) == 2
    _, err = _capture(capsys)
    assert "'1e3'" in err
    payload = load_json(path)
    del payload["curve"]["e0"]
    good = load_json(path)
    for bad, field in (
        (payload, "'curve'"),
        ({k: v for k, v in good.items() if k != "g"}, "lacks field 'g'"),
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
        ({**good, "points": [{"infinity": False}]}, "'infinity'"),
        ({**good, "points": [{**good["points"][0], "x": {"num": ["1"], "den": []}}]}, "'points'"),
        ({**good, "points": [{**good["points"][0], "x": {"num": ["1"], "den": ["0"]}}]}, "'points'"),
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


def test_check_errors_share_one_base():
    # run exits 1 on a CheckError and 2 on any other ValueError
    for cls in (ExactMathError, CurveError, ForgeError, CertifyError, DensityError):
        assert issubclass(cls, CheckError), cls
    assert issubclass(ExactMathError, ArithmeticError)
    for cls in (CurveError, ForgeError, CertifyError, DensityError):
        assert issubclass(cls, ValueError), cls
    for cls in (ConstraintError, BadPrimeError):
        assert issubclass(cls, ValueError) and not issubclass(cls, CheckError), cls


def test_repeated_parameter_rejected(capsys):
    assert run(["catalog-build", "--id", "cor3_2", "--params", "a=1,a=3"]) == 2
    _, err = _capture(capsys)
    assert "'a'" in err
    assert run(["catalog-build", "--id", "cor3_2", "--params", "a=3,b=2"]) == 0
    plain, _ = _capture(capsys)
    # an empty piece is skipped; a piece without '=' is a usage error
    assert run(["catalog-build", "--id", "cor3_2", "--params", "a=3,b=2,"]) == 0
    assert _capture(capsys)[0] == plain
    assert run(["catalog-build", "--id", "cor3_2", "--params", "a"]) == 2
    _, err = _capture(capsys)
    assert "name=value" in err


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


_MODULES_AFTER = (
    "import sys; sys.path.insert(0, sys.argv[1]); from twistlab.cli import run; "
    "code = run(sys.argv[2:]); print(sorted(sys.modules)); sys.exit(code)"
)


def _modules_after(argv, cwd) -> set:
    """The modules loaded by one command in a fresh `python -S`, with the
    package's src on sys.path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c", _MODULES_AFTER, src, *argv], cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    path = str(tmp_path / "fam.json")
    # (argv, the module the command runs, modules it must not load)
    commands = [
        (["catalog-build", "--id", "thm4_5", "--out", path], "catalog", {"certify", "densitylab"}),
        (["crosscheck", "--id", "thm4_5"], "catalog", {"certify", "densitylab"}),
        (["certify", "--family", path], "certify", {"catalog", "densitylab"}),
        (["specialize", "--family", path, "--u0", "3/2"], "certify", {"catalog", "densitylab"}),
        (["density", "--family", path, "--grid", "6", "--certify"], "densitylab", {"catalog"}),
    ]
    for argv, runs, absent in commands:
        loaded = _modules_after(argv, tmp_path)
        assert f"twistlab.{runs}" in loaded, argv
        unwanted = {f"twistlab.{name}" for name in absent} | {"dataclasses", "inspect", "typing"}
        assert not loaded & unwanted, (argv, sorted(loaded & unwanted))
