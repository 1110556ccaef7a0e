"""twistlab benchmark: times the CLI on four workloads and checks every output.

    python3 bench/run.py --workload {forge,survey,census3,census2} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every CLI command runs in a fresh
interpreter (`bench/child.py`), as a user pays import and cold caches on each
invocation.  This process starts them one at a time; only census2 keeps two
processes busy at once (the CLI's own pool of two workers).

Set-up runs several times in fresh interpreters and its median is `setup_s`.
The first set-up makes the inputs; the others are spread over the run, one
after each timed chain and the rest at the end, so that their median sees the
same machine as the timed phase.  The timed phase repeats passes over the
same inputs while another pass fits in `--seconds` (at least one pass).
With `--trace 1` the run makes one untraced and one traced pass and reports
per-layer metrics from the spans.

Human-readable report lines go to stdout first; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record
(environment, drawn parameters, per-command timings, checks) is written to
.bench_run/<workload>-s<seed>-t<trace>/result.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import metrics
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")
SETUP_REPEATS = 15
DEADLINE_S = 165  # the whole run must end within 180 s


class Deadline(Exception):
    pass


def _percentile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
    }


class Runner:
    def __init__(self, work: str):
        self.work = work  # relative to ROOT
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.log: list[dict] = []
        self.setup_times: list[float] = []

    def spawn(self, argv: list[str], label: str, expect: int = 0) -> tuple[bool, float]:
        """Run one child interpreter to completion; returns (ok, wall seconds)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline(label)
        stem = os.path.join(ROOT, self.work, f"log{len(self.log)}")
        self.attempted += 1
        with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, *argv], cwd=ROOT, stdout=out, stderr=err,
                                    start_new_session=True)
            # A blocking wait returns as soon as the child exits; wait(timeout=...)
            # polls and would round every wall time up to the next 50 ms.
            killer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            code = proc.wait()
            wall = time.perf_counter() - t0
            killer.cancel()
            if code == -signal.SIGKILL and time.monotonic() >= self.deadline:
                code = None
        self.log.append({"label": label, "argv": argv, "exit": code, "wall_s": wall})
        ok = code == expect
        if not ok:
            self.failed += 1
            with open(stem + ".err", errors="replace") as fh:
                tail = fh.read()[-400:].strip()
            self.errors.append(f"{label}: exit {code} (expected {expect}) {tail}")
        if code is None:
            raise Deadline(label)
        return ok, wall

    def run_chain(self, chain: dict, reference: dict, trace_dir: str | None = None) -> tuple[float, int, dict]:
        """Run a chain's commands and check its outputs: (wall, units, tallies)."""
        wall = 0.0
        ok = True
        for i, argv in enumerate(chain["commands"]):
            prefix = ["cmd"]
            if trace_dir is not None:
                prefix += ["--trace-dir", trace_dir, "--run-id", str(len(self.log))]
            good, dt = self.spawn(prefix + ["--"] + argv, f"{chain['label']} [{argv[0]}]")
            wall += dt
            ok = ok and good
        if not ok:
            return wall, 0, {}
        try:
            errors, units, tallies = workloads.check_chain(chain, ROOT, reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors, units, tallies = [f"{chain['label']}: unreadable output ({exc!r})"], 0, {}
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            return wall, 0, tallies
        return wall, units, tallies

    def setup(self, workload: str, seed: int):
        """One set-up in a fresh interpreter; it (re)writes the inputs and plan.json."""
        ok, wall = self.spawn(["setup", workload, str(seed), self.work], f"setup {len(self.setup_times)}")
        if not ok:
            raise RuntimeError("set-up failed: " + "; ".join(self.errors))
        self.setup_times.append(wall)

    def run_pass(self, plan: dict, reference: dict, trace_dir: str | None = None, after_chain=None) -> dict:
        t0 = time.perf_counter()
        walls, units, tallies = [], 0, {}
        for chain in plan["chains"]:
            wall, u, t = self.run_chain(chain, reference, trace_dir)
            if after_chain is not None:
                after_chain()
            walls.append(wall)
            units += u
            for k, v in t.items():
                tallies[k] = tallies.get(k, 0) + v
        return {"seconds": time.perf_counter() - t0, "chain_walls": walls, "units": units, "tallies": tallies}


def _report(lines: list[str], result: dict):
    for line in lines:
        print("# " + line)
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "twistlab", "cli.py")):
        print("bench: no twistlab sources under src/ (run from the root of a checkout)", file=sys.stderr)
        return 2
    env = _environment()
    env["load_before"] = os.getloadavg()
    env["busy"] = env["load_before"][0] >= env["nproc"]

    work = os.path.join(".bench_run", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    runner = Runner(work)
    reference = workloads.load_reference()
    runner.setup(args.workload, args.seed)
    with open(os.path.join(ROOT, work, "plan.json")) as fh:
        plan = json.load(fh)

    def another_setup():
        if len(runner.setup_times) < SETUP_REPEATS:
            runner.setup(args.workload, args.seed)

    passes = []
    traced = None
    notes: list[str] = []
    try:
        if args.trace:
            passes.append(runner.run_pass(plan, reference))
            trace_dir = os.path.join(ROOT, work, "trace")
            os.makedirs(trace_dir)
            traced = runner.run_pass(plan, reference, trace_dir)
        else:
            while True:
                passes.append(runner.run_pass(plan, reference, after_chain=another_setup))
                spent = sum(p["seconds"] for p in passes)
                if spent + passes[-1]["seconds"] > args.seconds:
                    break
        for chain in plan["post"]:
            runner.run_chain(chain, reference)
        while len(runner.setup_times) < SETUP_REPEATS:
            another_setup()
    except Deadline as exc:
        runner.errors.append(f"stopped at the {DEADLINE_S} s deadline during {exc}")
        runner.failed += 1
        if not passes:
            print(f"bench: no pass finished within {DEADLINE_S} s", file=sys.stderr)
            return 1

    env["load_after"] = os.getloadavg()
    units = sum(p["units"] for p in passes)
    walls = [w for p in passes for w in p["chain_walls"]]
    timed = sum(walls)  # the commands' wall time, without the output checks
    tallies: dict = {}
    for p in passes:
        for k, v in p["tallies"].items():
            tallies[k] = tallies.get(k, 0) + v
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e = {
        "setup_s": statistics.median(runner.setup_times),
        "units_per_s": units / timed,
        "chain_p50_s": _percentile(walls, 0.5),
        "chain_p90_s": _percentile(walls, 0.9),
        "peak_rss_mb": peak_kb / 1024,
    }
    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    if env["busy"]:
        lines.append(f"BUSY: load average {env['load_before'][0]:.2f} >= nproc {env['nproc']} at start")
    if plan["draws"]:
        lines.append("draws (seed %d, height <= %d): " % (args.seed, workloads.MAX_HEIGHT)
                     + "; ".join(f"{fid} {p}" for fid, p in plan["draws"]))
    lines.append(f"passes: {len(passes)}, {len(walls)} chains, {units} units in {timed:.3f} s"
                 f" (unit: one {workloads.UNIT[args.workload]})")
    for name, value in e2e.items():
        lines.append(f"{name} = {value:.6g} {metrics.END_TO_END[name]}")
    if "certs" in tallies:
        lines.append(f"certified_frac = {tallies['certs_at_claim'] / tallies['certs']:.6g}"
                     f" ({tallies['certs_at_claim']}/{tallies['certs']} certificates reach the claimed rank)")
    if "counted_d" in tallies:
        lines.append(f"certified_frac = {tallies['certified_d'] / tallies['counted_d']:.6g}"
                     f" ({tallies['certified_d']}/{tallies['counted_d']} counted D certified)")
    lines.append(f"fail_frac = {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})")
    lines.extend("FAILED " + e for e in runner.errors)

    record = {"args": vars(args), "env": env, "plan": plan, "setup_s": runner.setup_times, "passes": passes,
              "commands": runner.log, "errors": runner.errors, "end_to_end": e2e}
    if args.trace:
        if traced is None:
            print("bench: the traced pass did not finish", file=sys.stderr)
            return 1
        summaries = []
        for path in sorted(glob.glob(os.path.join(ROOT, work, "trace", "*.json"))):
            with open(path) as fh:
                summaries.append(json.load(fh))
        merged = tracer.merge(summaries)
        untraced, traced_s = sum(passes[0]["chain_walls"]), sum(traced["chain_walls"])
        values, notes = metrics.layer_metrics(merged, len(plan["chains"]), (traced_s - untraced) / untraced)
        top, top_s = metrics.largest_self_time(merged)
        lines.append(f"traced pass {traced_s:.3f} s vs untraced {untraced:.3f} s;"
                     f" largest self time: {top} ({top_s:.3f} s)")
        if args.workload == "census2":
            lines.append("census2 traced at --threads 2; pool-worker spans included")
        lines.extend("note: " + n for n in notes)
        for name, value in values.items():
            lines.append(f"{name} = {value:.6g} {metrics.PER_LAYER[name]}")
        record["per_layer"] = values
        record["traced_pass"] = traced
        out = metrics.select(values, metrics.PER_LAYER)
    else:
        out = metrics.select(e2e, metrics.END_TO_END)
    record["notes"] = notes
    with open(os.path.join(ROOT, work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    correct = runner.failed == 0
    _report(lines, {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": out})
    return 0


if __name__ == "__main__":
    sys.exit(main())
