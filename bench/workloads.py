"""The four benchmark workloads: their inputs, their CLI commands and their output checks.

`make_plan` runs in the set-up interpreter (it imports twistlab); everything
else runs in the `run.py` process and only reads the files the commands wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("forge", "survey", "census3", "census2")
# what one unit of `units_per_s` is
UNIT = {
    "forge": "family chain",
    "survey": "coprime (a, b) pair",
    "census3": "counted D with a certification record",
    "census2": "counted D with a certification record",
}

# forge: seeded parameter draws for every parametrised family, on top of the
# nine families at their default parameters.  Each family gets one draw from
# each height stratum (height = max |numerator|, denominator over its
# parameters), so every seed has the same height mix and the seeds' figures
# stay comparable.  Height is capped at 4: chains there take up to ~5 s, while
# thm4_2a at a = 15/28 takes a minute.
HEIGHT_STRATA = ((1, 2), (3, 4))
MAX_HEIGHT = HEIGHT_STRATA[-1][1]
# A seed that no recorded run uses, kept for checking a later speed claim on
# inputs that were not looked at while the change was written.
HELD_OUT_SEED = 20001017

SURVEY_GRID = 300
SURVEY_FAMILIES = ("cor3_2", "thm4_5")
# criterion-7 bands for the fitted exponent of log |S(x)| against log x
SLOPE_BANDS = {"cor3_2": (0.23, 0.43), "thm4_5": (0.06, 0.27)}
CENSUS_GRID = 50

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _height(q: Fraction) -> int:
    return max(abs(q.numerator), q.denominator)


def draw_params(seed: int) -> list[tuple[str, dict[str, Fraction]]]:
    """One parameter set per height stratum for every parametrised family,
    drawn uniformly and kept only when FamilySpec.make accepts it."""
    from twistlab.catalog import DEFAULT_PARAMS, FAMILY_IDS, ConstraintError, FamilySpec

    rng = random.Random(seed)
    values = sorted({Fraction(p, q) for p in range(-MAX_HEIGHT, MAX_HEIGHT + 1) for q in range(1, MAX_HEIGHT + 1)})
    draws = []
    for fid in FAMILY_IDS:
        names = sorted(DEFAULT_PARAMS[fid])
        if not names:
            continue
        for lo, hi in HEIGHT_STRATA:
            while True:
                params = {name: rng.choice(values) for name in names}
                if not lo <= max(map(_height, params.values())) <= hi:
                    continue
                try:
                    FamilySpec.make(fid, params)
                except ConstraintError:
                    continue
                draws.append((fid, params))
                break
    return draws


def _params_arg(params: dict) -> list[str]:
    if not params:
        return []
    return ["--params", ",".join(f"{k}={v}" for k, v in sorted(params.items()))]


def _write_family(fid: str, path: str):
    import contextlib
    import io

    from twistlab import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(["catalog-build", "--id", fid, "--out", path])
    if code != 0:
        raise RuntimeError(f"catalog-build --id {fid} exited {code}")


def coprime_pairs(grid: int) -> int:
    return sum(1 for a in range(1, grid + 1) for b in range(1, grid + 1) if gcd(a, b) == 1)


def make_plan(workload: str, seed: int, work: str) -> dict:
    """Inputs and commands of one run; paths are relative to the checkout root."""
    import twistlab.cli  # noqa: F401  (set-up time covers the CLI import)
    from twistlab.catalog import FAMILY_IDS

    chains = []
    post = []
    draws = []
    if workload == "forge":
        draws = draw_params(seed)
        inputs = [(fid, {}) for fid in FAMILY_IDS] + draws
        for i, (fid, params) in enumerate(inputs):
            fam = f"{work}/fam{i}.json"
            label = fid + ("" if not params else " " + ",".join(f"{k}={v}" for k, v in sorted(params.items())))
            chains.append({
                "label": label,
                "kind": "forge",
                "commands": [
                    ["catalog-build", "--id", fid, *_params_arg(params), "--out", fam],
                    ["crosscheck", "--id", fid, *_params_arg(params), "--out", f"{work}/cross{i}.json"],
                    ["certify", "--family", fam, "--out", f"{work}/cert{i}.json"],
                ],
                "outputs": {"family": fam, "cross": f"{work}/cross{i}.json", "cert": f"{work}/cert{i}.json"},
            })
    elif workload == "survey":
        pairs = coprime_pairs(SURVEY_GRID)
        for fid in SURVEY_FAMILIES:
            _write_family(fid, f"{work}/{fid}.json")
            out = f"{work}/survey_{fid}.json"
            chains.append({
                "label": fid,
                "kind": "survey",
                "family": fid,
                "units": pairs,
                "commands": [["density", "--family", f"{work}/{fid}.json", "--grid", str(SURVEY_GRID), "--out", out]],
                "outputs": {"density": out},
            })
    elif workload in ("census3", "census2"):
        fid, threads = ("thm4_5", 1) if workload == "census3" else ("cor3_2", 2)
        _write_family(fid, f"{work}/{fid}.json")
        base = ["density", "--family", f"{work}/{fid}.json", "--grid", str(CENSUS_GRID), "--certify"]
        out = f"{work}/{workload}.json"
        chains.append({
            "label": f"{fid} grid {CENSUS_GRID} --threads {threads}",
            "kind": "census",
            "family": fid,
            "commands": [base + ["--threads", str(threads), "--out", out]],
            "outputs": {"density": out},
        })
        if threads > 1:
            # output must not depend on --threads
            ref_out = f"{work}/{workload}_threads1.json"
            post.append({
                "label": f"{fid} grid {CENSUS_GRID} --threads 1",
                "kind": "same-bytes",
                "commands": [base + ["--threads", "1", "--out", ref_out]],
                "outputs": {"density": ref_out, "same_as": out},
            })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "seed": seed,
        "draws": [[fid, {k: str(v) for k, v in sorted(p.items())}] for fid, p in draws],
        "chains": chains,
        "post": post,
    }


# ---------------------------------------------------------------------------
# Output checks (in the run.py process)
# ---------------------------------------------------------------------------


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def d_digest(witnesses: dict) -> str:
    """sha256 of the sorted counted D values."""
    ds = sorted(int(d) for d in witnesses)
    return hashlib.sha256(",".join(map(str, ds)).encode()).hexdigest()


def load_reference() -> dict:
    return _load(REFERENCE)


def check_chain(chain: dict, root: str, reference: dict) -> tuple[list[str], int, dict]:
    """Check a chain's outputs: (errors, units of work done, extra tallies)."""
    out = {k: os.path.join(root, v) for k, v in chain["outputs"].items()}
    kind = chain["kind"]
    if kind == "forge":
        errors = []
        cross = _load(out["cross"])
        if not cross.get("ok"):
            errors.append(f"crosscheck {chain['label']} reported a mismatch")
        claimed = _load(out["family"])["claimed_rank"]
        got = _load(out["cert"])["certified_lower"]
        if got != claimed:
            errors.append(f"certify {chain['label']}: certified_lower {got} != claimed rank {claimed}")
        return errors, 1, {"certs": 1, "certs_at_claim": int(got == claimed)}
    if kind == "survey":
        rep = _load(out["density"])
        ref = reference["survey"][chain["family"]]
        errors = []
        if rep["pairs"] != ref["pairs"]:
            errors.append(f"survey {chain['family']}: (x, count) pairs differ from the reference")
        if d_digest(rep["witnesses"]) != ref["d_digest"]:
            errors.append(f"survey {chain['family']}: D set differs from the reference")
        lo, hi = SLOPE_BANDS[chain["family"]]
        slope = rep.get("fit", {}).get("slope")
        if slope is None or not lo <= slope <= hi:
            errors.append(f"survey {chain['family']}: fitted slope {slope} outside [{lo}, {hi}]")
        return errors, chain["units"], {}
    if kind == "census":
        rep = _load(out["density"])
        ref = reference["census"][chain["family"]]
        errors = []
        if d_digest(rep["witnesses"]) != ref["d_digest"] or rep["counts"] != ref["counts"]:
            errors.append(f"census {chain['family']}: counted D set differs from the reference")
        if any(c > n for c, n in zip(rep["certified_counts"], rep["counts"])):
            errors.append(f"census {chain['family']}: certified_counts exceed counts")
        # Certifying more D than the reference is allowed; certifying fewer is a failure.
        if len(rep["certified_counts"]) != len(ref["certified_counts"]) or any(
                c < r for c, r in zip(rep["certified_counts"], ref["certified_counts"])):
            errors.append(f"census {chain['family']}: certified_counts below the reference")
        records = rep.get("certifications", {})
        missing = set(rep["witnesses"]) - set(records)
        if missing:
            errors.append(f"census {chain['family']}: {len(missing)} counted D without a certification record")
        certified = sum(1 for rec in records.values() if rec.get("certified") is True)
        if certified < ref["certified_d"]:
            errors.append(f"census {chain['family']}: {certified} D certified, reference {ref['certified_d']}")
        return errors, len(set(rep["witnesses"]) & set(records)), {
            "counted_d": len(rep["witnesses"]), "certified_d": certified}
    if kind == "same-bytes":
        with open(out["density"], "rb") as a, open(out["same_as"], "rb") as b:
            same = a.read() == b.read()
        return ([] if same else [f"{chain['label']}: payload differs from the --threads 2 payload"]), 0, {}
    raise ValueError(f"unknown chain kind {kind!r}")
