"""Entry point of every interpreter the benchmark starts.

    python3 bench/child.py setup WORKLOAD SEED WORKDIR
        import the CLI, make the run's inputs and write WORKDIR/plan.json
    python3 bench/child.py cmd [--trace-dir DIR --run-id N] -- ARGV...
        run `twistlab.cli.run(ARGV)` and exit with its code; with --trace-dir,
        record spans at the module boundaries and write them to DIR

Run from the root of a checkout; the package is imported from its `src/`.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _setup(workload: str, seed: str, work: str) -> int:
    import workloads

    plan = workloads.make_plan(workload, int(seed), work)
    with open(os.path.join(ROOT, work, "plan.json"), "w") as fh:
        json.dump(plan, fh, indent=1)
    return 0


def _cmd(argv: list[str]) -> int:
    trace_dir = run_id = None
    while argv and argv[0] != "--":
        flag, value, *argv = argv
        if flag == "--trace-dir":
            trace_dir = value
        elif flag == "--run-id":
            run_id = int(value)
        else:
            raise SystemExit(f"child.py cmd: unknown flag {flag}")
    argv = argv[1:]
    if trace_dir is None:
        from twistlab import cli

        return cli.run(argv)
    import tracer

    rec = tracer.install(trace_dir, run_id)
    from twistlab import cli

    try:
        return cli.run(argv)
    finally:
        rec.flush()


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        return _setup(*argv[1:])
    if argv[:1] == ["cmd"]:
        return _cmd(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
