"""Command-line front end: build, certify, specialize, and survey families.

Exit codes: 0 on success, 1 on a mathematical check failure, 2 on usage
errors.  `--json` prints machine-readable output on stdout; diagnostics go to
stderr.  Output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog, certify as certify_mod, densitylab, jsonio
from .catalog import FamilySpec, ConstraintError
from .certify import CertifyError
from .curves import CurveError
from .exactmath import ExactMathError, rat_from_str
from .twistforge import ForgeError


def _parse_params(text: str | None) -> dict:
    out = {}
    if text:
        for piece in text.split(","):
            if not piece.strip():
                continue
            if "=" not in piece:
                raise ValueError(f"bad parameter assignment {piece!r} (want name=value)")
            name, value = (s.strip() for s in piece.split("=", 1))
            if name in out:
                raise ValueError(f"parameter {name!r} given twice")
            out[name] = rat_from_str(value)
    return out


def _positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return n


def _emit(args, payload: dict, text_lines: list[str]):
    if getattr(args, "json", False):
        print(jsonio.dump_json(payload, compact=False))
    else:
        for line in text_lines:
            print(line)
    out_path = getattr(args, "out", None)
    if out_path:
        jsonio.dump_json(payload, path=out_path)
        print(f"wrote {out_path}", file=sys.stderr)


def _load_family(path: str):
    return jsonio.family_from_json(jsonio.load_json(path))


def _cmd_catalog_list(args) -> int:
    rows = []
    for fid in catalog.FAMILY_IDS:
        rows.append(
            {
                "id": fid,
                "default_params": {k: str(v) for k, v in catalog.DEFAULT_PARAMS[fid].items()},
                "degree": catalog.EXPECTED_DEGREE[fid],
                "claimed_rank": catalog.CLAIMED_RANK[fid],
            }
        )
    lines = [f"{r['id']:10s} deg={r['degree']:2d} rank>={r['claimed_rank']} params={r['default_params']}" for r in rows]
    _emit(args, {"families": rows}, lines)
    return 0


def _cmd_catalog_build(args) -> int:
    spec = FamilySpec.make(args.id, _parse_params(args.params))
    fam = catalog.build(spec)
    payload = jsonio.family_to_json(fam)
    lines = [
        f"family {spec.id} (rank >= {fam.claimed_rank}), deg g = {fam.g.degree}",
        f"g(u) = {fam.g.to_str('u')}",
    ] + [f"P{i} = ({p.x.to_str('u')}, {p.y.to_str('u')})" for i, p in enumerate(fam.points, 1)]
    _emit(args, payload, lines)
    return 0


def _forge(args, want_rank: int) -> int:
    spec = FamilySpec.make(args.id, _parse_params(args.params))
    fam = catalog.build_pipeline(spec)
    if fam.claimed_rank != want_rank:
        print(f"family {args.id} carries rank {fam.claimed_rank}, not {want_rank}", file=sys.stderr)
        return 2
    payload = jsonio.family_to_json(fam)
    lines = [
        f"forged {spec.id} via {fam.provenance.get('method')}",
        f"g(u) = {fam.g.to_str('u')}",
    ] + [f"P{i} = ({p.x.to_str('u')}, {p.y.to_str('u')})" for i, p in enumerate(fam.points, 1)]
    _emit(args, payload, lines)
    return 0


def _cmd_crosscheck(args) -> int:
    spec = FamilySpec.make(args.id, _parse_params(args.params))
    report = catalog.crosscheck(spec)
    payload = report.to_json()
    lines = [f"crosscheck {report.family}: {'OK' if report.ok else 'MISMATCH'}"] + list(report.messages)
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def _cmd_certify(args) -> int:
    fam = _load_family(args.family)
    try:
        cert = certify_mod.certify_family(fam, samples=args.samples, prime_budget=args.primes)
    except CertifyError as exc:
        print(f"certification failed at check: {exc.check_name}", file=sys.stderr)
        _emit(args, {"failed_check": exc.check_name, "error": str(exc)}, [f"FAILED: {exc.check_name}"])
        return 1
    payload = cert.to_json()
    lines = [
        f"family {cert.family}: certified rank >= {cert.certified_lower}, genus bound {cert.genus_upper}",
    ] + [f"  {c.name}: {c.status}" for c in cert.checks]
    _emit(args, payload, lines)
    claimed = fam.claimed_rank
    return 0 if cert.certified_lower >= claimed else 1


def _cmd_specialize(args) -> int:
    fam = _load_family(args.family)
    try:
        spec = certify_mod.specialize(fam, rat_from_str(args.u0))
    except CertifyError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    payload = spec.to_json()
    lines = [f"u0 = {args.u0}: D = {spec.d}"] + [
        f"P{i} = ({p.x}, {p.y})" for i, p in enumerate(spec.points, 1)
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_density(args) -> int:
    fam = _load_family(args.family)
    form = densitylab.homog_form(fam.g, fam.provenance.get("factor_polys"))
    report = densitylab.enumerate_S(
        form,
        grid=args.grid,
        modulus=args.modulus,
        x_max=args.x_max,
        family=fam.provenance.get("family", ""),
    )
    try:
        report = densitylab.with_fit(report)
    except densitylab.DensityError as exc:
        print(f"fit skipped: {exc}", file=sys.stderr)
    if args.certify:
        report = densitylab.certified_density(fam, report, prime_budget=args.primes, threads=args.threads)
    payload = report.to_json(include_witnesses=not args.no_witnesses)
    lines = [f"family {report.family}: grid {report.grid}, {len(report.witnesses)} distinct squarefree twists"]
    for x, c in zip(report.x_grid, report.counts):
        lines.append(f"  |D| < {x}: {c}")
    if report.fit:
        lines.append(f"fitted exponent: {report.fit[0]:.4f} (k = {form.k}, predicted 1/k = {1 / form.k:.4f})")
    if report.certified_counts is not None:
        lines.append(f"certified counts: {list(report.certified_counts)}")
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Construct, certify, and survey high-rank quadratic twist families over Q(u).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True):
        p.add_argument("--json", action="store_true", help="machine-readable output on stdout")
        if out:
            p.add_argument("--out", metavar="FILE", help="also write the JSON payload to FILE")

    p = sub.add_parser("catalog-list", help="list the built-in families")
    add_common(p, out=False)
    p.set_defaults(func=_cmd_catalog_list)

    p = sub.add_parser("catalog-build", help="build a family from its displayed data")
    p.add_argument("--id", required=True, choices=catalog.FAMILY_IDS)
    p.add_argument("--params", help="comma-separated name=value parameter overrides")
    add_common(p)
    p.set_defaults(func=_cmd_catalog_build)

    for rank in (2, 3):
        p = sub.add_parser(f"forge-rank{rank}", help=f"derive a rank-{rank} family through the pipeline")
        p.add_argument("--id", required=True, choices=catalog.FAMILY_IDS)
        p.add_argument("--params")
        add_common(p)
        p.set_defaults(func=lambda a, r=rank: _forge(a, r))

    p = sub.add_parser("crosscheck", help="compare displayed data against the pipeline derivation")
    p.add_argument("--id", required=True, choices=catalog.FAMILY_IDS)
    p.add_argument("--params")
    add_common(p)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("certify", help="produce a rank certificate for a family JSON file")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--samples", type=_positive_int, default=certify_mod.DEFAULT_SAMPLES)
    p.add_argument("--primes", type=_positive_int, default=certify_mod.DEFAULT_PRIME_BUDGET)
    add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("specialize", help="specialize a family at a rational u0")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--u0", required=True, help="rational number, e.g. 3/2")
    add_common(p)
    p.set_defaults(func=_cmd_specialize)

    p = sub.add_parser("density", help="count distinct squarefree twists over a coprime grid")
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--grid", type=_positive_int, required=True)
    p.add_argument("--modulus", type=_positive_int, default=1)
    p.add_argument("--x-max", type=_positive_int, default=None, dest="x_max")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--primes", type=_positive_int, default=certify_mod.DEFAULT_PRIME_BUDGET)
    p.add_argument(
        "--threads",
        type=_positive_int,
        default=os.environ.get("TWISTLAB_THREADS", "1"),
        help="worker processes for certification (default: TWISTLAB_THREADS or 1)",
    )
    p.add_argument("--no-witnesses", action="store_true", help="omit per-D witnesses from JSON output")
    add_common(p)
    p.set_defaults(func=_cmd_density)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ForgeError, CertifyError, CurveError, ExactMathError, densitylab.DensityError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # malformed fractions or parameter strings
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
