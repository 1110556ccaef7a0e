"""Command-line front end: build, certify, specialize, and survey families.

Exit codes: 0 on success, 1 on a mathematical check failure (a CheckError),
2 on usage errors, malformed input and unreadable files.  `--json` prints
machine-readable output on stdout; diagnostics go to stderr.  Output is
deterministic for identical inputs.

Each command imports the modules it runs in its own handler, and only
`jsonio` and `exactmath` are imported here, so that a command starts on
the modules it needs: `catalog-build` loads neither `certify` nor
`densitylab`, `certify` does not load `catalog`, and `density` loads
`certify` only under `--certify`.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .exactmath import CheckError, rat_from_str


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
    """Write --out first, so that a failed write prints nothing, then print
    the payload as JSON under --json and as text lines otherwise."""
    as_json = getattr(args, "json", False)
    out_path = getattr(args, "out", None)
    if as_json or out_path:
        text = jsonio.dump_json(payload, path=out_path or None)
    if as_json:
        print(text)
    else:
        for line in text_lines:
            print(line)
    if out_path:
        print(f"wrote {out_path}", file=sys.stderr)


def _load_family(path: str):
    return jsonio.family_from_json(jsonio.load_json(path))


def _cmd_catalog_list(args) -> int:
    from . import catalog

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


def _emit_family(args, fam, headline: str) -> int:
    lines = [headline, f"g(u) = {fam.g.to_str('u')}"]
    lines += [f"P{i} = ({p.x.to_str('u')}, {p.y.to_str('u')})" for i, p in enumerate(fam.points, 1)]
    _emit(args, jsonio.family_to_json(fam), lines)
    return 0


def _cmd_catalog_build(args) -> int:
    from . import catalog

    fam = catalog.build(catalog.FamilySpec.make(args.id, _parse_params(args.params)))
    return _emit_family(args, fam, f"family {args.id} (rank >= {fam.claimed_rank}), deg g = {fam.g.degree}")


def _forge(args, want_rank: int) -> int:
    from . import catalog

    fam = catalog.build_pipeline(catalog.FamilySpec.make(args.id, _parse_params(args.params)))
    if fam.claimed_rank != want_rank:
        print(f"family {args.id} carries rank {fam.claimed_rank}, not {want_rank}", file=sys.stderr)
        return 2
    return _emit_family(args, fam, f"forged {args.id} via {fam.provenance.get('method')}")


def _cmd_crosscheck(args) -> int:
    from . import catalog

    spec = catalog.FamilySpec.make(args.id, _parse_params(args.params))
    report = catalog.crosscheck(spec)
    lines = [f"crosscheck {report['family']}: {'OK' if report['ok'] else 'MISMATCH'}"] + report["messages"]
    _emit(args, report, lines)
    return 0 if report["ok"] else 1


def _cmd_certify(args) -> int:
    from . import certify as certify_mod

    fam = _load_family(args.family)
    try:
        cert = certify_mod.certify_family(fam, samples=args.samples, prime_budget=args.primes)
    except certify_mod.CertifyError as exc:
        print(f"certification failed at check: {exc.check_name}", file=sys.stderr)
        _emit(args, {"failed_check": exc.check_name, "error": str(exc)}, [f"FAILED: {exc.check_name}"])
        return 1
    lower = cert["certified_lower"]
    lines = [
        f"family {cert['family']}: certified rank >= {lower}, genus bound {cert['genus_upper']}",
    ] + [f"  {c['name']}: {c['status']}" for c in cert["checks"]]
    _emit(args, cert, lines)
    if lower < fam.claimed_rank:
        print(f"proved rank {lower} is short of the claimed rank {fam.claimed_rank}", file=sys.stderr)
        return 1
    return 0


def _cmd_specialize(args) -> int:
    from . import certify as certify_mod

    fam = _load_family(args.family)
    certify_mod.structural_checks(fam)
    spec = certify_mod.specialize(fam, rat_from_str(args.u0))
    payload = spec.to_json()
    lines = [f"u0 = {args.u0}: D = {spec.d}"] + [
        f"P{i} = ({p.x}, {p.y})" for i, p in enumerate(spec.points, 1)
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_density(args) -> int:
    from . import densitylab

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
        report = densitylab.certified_density(fam, report, prime_budget=args.primes)
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


class _CommandParser(argparse.ArgumentParser):
    """The parser of one command, which adds its arguments when it first
    parses: `--id` takes its choices from `catalog`, and the `certify`
    command's `--samples` and `--primes` their defaults from `certify`, so
    building the top-level parser imports neither.  `density --primes`
    leaves its default to `certified_density`."""

    def __init__(self, *args, add_arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _common_args(p, out=True):
    p.add_argument("--json", action="store_true", help="machine-readable output on stdout")
    if out:
        p.add_argument("--out", metavar="FILE", help="also write the JSON payload to FILE")


def _family_id_args(p):
    from .catalog import FAMILY_IDS

    p.add_argument("--id", required=True, choices=FAMILY_IDS)
    p.add_argument("--params", help="comma-separated name=value parameter overrides")
    _common_args(p)


def _certify_args(p):
    from .certify import DEFAULT_PRIME_BUDGET, DEFAULT_SAMPLES

    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES)
    p.add_argument("--primes", type=_positive_int, default=DEFAULT_PRIME_BUDGET)
    _common_args(p)


def _specialize_args(p):
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--u0", required=True, help="rational number, e.g. 3/2; write a negative one as --u0=-1/3")
    _common_args(p)


def _density_args(p):
    p.add_argument("--family", required=True, metavar="FILE")
    p.add_argument("--grid", type=_positive_int, required=True)
    p.add_argument("--modulus", type=_positive_int, default=1)
    p.add_argument("--x-max", type=_positive_int, default=None, dest="x_max")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--primes", type=_positive_int, default=None)
    p.add_argument("--threads", type=_positive_int, default=1, help="no effect: certification runs in one process")
    p.add_argument("--no-witnesses", action="store_true", help="omit per-D witnesses from JSON output")
    _common_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Construct, certify, and survey high-rank quadratic twist families over Q(u).",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    commands = [
        ("catalog-list", "list the built-in families", lambda p: _common_args(p, out=False), _cmd_catalog_list),
        ("catalog-build", "build a family from its displayed data", _family_id_args, _cmd_catalog_build),
        ("forge-rank2", "derive a rank-2 family through the pipeline", _family_id_args, lambda a: _forge(a, 2)),
        ("forge-rank3", "derive a rank-3 family through the pipeline", _family_id_args, lambda a: _forge(a, 3)),
        ("crosscheck", "compare displayed data against the pipeline derivation", _family_id_args, _cmd_crosscheck),
        ("certify", "produce a rank certificate for a family JSON file", _certify_args, _cmd_certify),
        ("specialize", "specialize a family at a rational u0", _specialize_args, _cmd_specialize),
        ("density", "count distinct squarefree twists over a coprime grid", _density_args, _cmd_density),
    ]
    for name, help_text, add_arguments, func in commands:
        sub.add_parser(name, help=help_text, add_arguments=add_arguments).set_defaults(func=func)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # unreadable files, bad input, violated family constraints
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
