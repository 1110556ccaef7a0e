"""Span recorder for traced benchmark runs.

The recorder wraps the public functions at twistlab's module boundaries from
outside the package: it replaces the module attribute, every `from ... import`
binding of it in the other twistlab modules, and class attributes for methods.
Each call of a wrapped function appends one span (name, start, end, parent) to
compact in-memory arrays; the spans of one CLI command share a run id.  When
the process ends the spans are written out and reduced to per-name call
counts, total time and self time (span time minus the time its child spans
cover).

`is_probable_prime` is traced as a counted leaf instead of a span: its time
stays in the caller's self time and is also summed as its own, and its calls
are counted per calling span.  It is called about 600 times per good-primes
search, so a span per call would dominate the trace.

The relation sieve's candidate vectors are counted as they are tested,
summed over the primes used.  The sieve builds one reduced curve per prime,
right before it tests its surviving candidates at that prime; the wrapped
curve constructor adds the length of the sieve's `survivors` list, read from
the calling frame.  The count costs one frame lookup per prime, not per
candidate, so the sieve's self time stays as it is.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter

ROOT = -1

# (module, attribute path, span name).  Several attributes may share a name.
BOUNDARIES = (
    ("exactmath", "UniPoly.gcd", "exactmath.UniPoly.gcd"),
    ("exactmath", "UniPoly.__divmod__", "exactmath.UniPoly.divmod"),
    ("exactmath", "square_class", "exactmath.square_class"),
    ("exactmath", "compose", "exactmath.compose"),
    ("exactmath", "RatFunc.evaluate", "exactmath.RatFunc.evaluate"),
    ("exactmath", "factorize", "exactmath.factorize"),
    ("exactmath", "squarefree_part_int", "exactmath.squarefree_part_int"),
    ("exactmath", "is_squarefree_int", "exactmath.is_squarefree_int"),
    ("curves", "TwistedCurve.__post_init__", "curves.TwistedCurve.init"),
    ("curves", "TwistedCurve.contains", "curves.TwistedCurve.contains"),
    ("curves", "TwistedCurve.add", "curves.TwistedCurve.add"),
    ("curves", "two_isogeny_quotient", "curves.isogeny"),
    ("curves", "three_isogeny", "curves.isogeny"),
    ("twistforge", "twist_from_permutation", "twistforge.identity"),
    ("twistforge", "twist_from_isogeny", "twistforge.identity"),
    ("twistforge", "conic_param_single", "twistforge.conic_param"),
    ("twistforge", "conic_param_double", "twistforge.conic_param"),
    ("twistforge", "assemble_rank2", "twistforge.assemble"),
    ("twistforge", "assemble_rank3", "twistforge.assemble"),
    ("twistforge", "validate_family", "twistforge.validate_family"),
    ("catalog", "build", "catalog.build"),
    ("catalog", "build_pipeline", "catalog.build_pipeline"),
    ("catalog", "crosscheck", "catalog.crosscheck"),
    ("certify", "certify_family", "certify.certify_family"),
    ("certify", "specialize", "certify.specialize"),
    ("certify", "good_primes", "certify.good_primes"),
    ("certify", "mod_p_relation_sieve", "certify.sieve"),
    ("densitylab", "enumerate_S", "densitylab.enumerate_S"),
    ("densitylab", "HomogForm.squarefree_value", "densitylab.squarefree_value"),
    ("densitylab", "certified_density", "densitylab.certified_density"),
    ("jsonio", "dump_json", "jsonio.dump_json"),
    ("jsonio", "load_json", "jsonio.load"),
    ("cli", "run", "cli.run"),
)
LEAVES = (("exactmath", "is_probable_prime", "exactmath.is_probable_prime"),)
POOL_WAIT = "densitylab.pool_wait"

_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs), default=0)


def _factorize_counts(args, result, counters):
    n = abs(args[0])
    if n < 10 ** 12:
        counters["factorize.calls_le12d"] += 1
    elif n < 10 ** 18:
        counters["factorize.calls_13_18d"] += 1
    elif n < 10 ** 24:
        counters["factorize.calls_19_24d"] += 1
    else:
        counters["factorize.calls_ge25d"] += 1
    if n >= _MR_PROVEN_BOUND:
        counters["factorize.above_mr_bound"] += 1


def _sieve_counts(args, verdict, counters):
    counters["sieve.primes"] += len(verdict.primes_used)
    counters["sieve.independent"] += int(verdict.independent)


def _good_primes_counts(args, primes, counters):
    counters["good_primes.primes"] += len(primes)


def _enumerate_counts(args, report, counters):
    counters["enumerate_S.distinct"] += len(report.witnesses)


def _dump_counts(args, text, counters):
    counters["dump_json.bytes"] += len(text)


# Per-name hooks that turn a call's arguments and result into counters.
COUNT_HOOKS = {
    "exactmath.factorize": _factorize_counts,
    "certify.sieve": _sieve_counts,
    "certify.good_primes": _good_primes_counts,
    "densitylab.enumerate_S": _enumerate_counts,
    "jsonio.dump_json": _dump_counts,
}


def _counting_mod_curve(cls, counters):
    """Wrap the sieve's per-prime curve constructor to count the candidates
    that the calling sieve is about to test at that prime."""

    def mod_curve(*args, **kwargs):
        survivors = sys._getframe(1).f_locals.get("survivors")
        if survivors is not None:
            counters()["sieve.candidates"] += len(survivors)
        return cls(*args, **kwargs)

    return mod_curve


class Recorder:
    """Spans of one process, kept in parallel arrays."""

    def __init__(self, out_dir: str, run_id: int):
        self.out_dir = out_dir
        self.run_id = run_id
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._reset()

    def _reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [ROOT]
        self.counters = Counter()
        self.maxima = Counter()
        self.leaf_calls = Counter()  # (leaf name, caller name) -> calls
        self.leaf_time = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.end.append(0.0)
            rec.stack.append(i)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = clock()
                rec.stack.pop()
            if hook is not None:
                hook(args, result, rec.counters)
            return result

        return span

    def wrap_leaf(self, fn, name: str):
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.leaf_time[name] += clock() - t0
                caller = rec.stack[-1]
                rec.leaf_calls[(name, rec.names[rec.name[caller]] if caller != ROOT else "")] += 1

        return leaf

    def wrap_gcd(self, fn, name: str):
        inner = self.wrap(fn, name)
        rec = self

        @functools.wraps(fn)
        def gcd(a, b):
            bits = max(_coeff_bits(a), _coeff_bits(b))
            if bits > rec.maxima["gcd.max_coeff_bits"]:
                rec.maxima["gcd.max_coeff_bits"] = bits
            return inner(a, b)

        return gcd

    # -- output -------------------------------------------------------------

    def flush(self):
        """Write this process's spans and their reduction to the output directory."""
        pid = os.getpid()
        stem = os.path.join(self.out_dir, f"{self.run_id}-{pid}")
        header = {"run_id": self.run_id, "pid": pid, "names": self.names, "spans": len(self.name)}
        with open(stem + ".spans", "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        summary = reduce_spans(self.names, self.name, self.parent, self.start, self.end)
        summary["counters"] = dict(self.counters)
        summary["maxima"] = dict(self.maxima)
        summary["leaf_calls"] = [[leaf, caller, n] for (leaf, caller), n in self.leaf_calls.items()]
        summary["leaf_time"] = dict(self.leaf_time)
        summary["run_id"] = self.run_id
        summary["pid"] = pid
        with open(stem + ".json", "w") as fh:
            json.dump(summary, fh)

    def _in_pool_worker(self):
        # A forked pool worker starts with a copy of the parent's spans; drop
        # them and write this worker's own spans when the worker exits.
        from multiprocessing import util

        self._reset()
        util.Finalize(self, self.flush, exitpriority=10)


def reduce_spans(names, name, parent, start, end) -> dict:
    """Reduce spans to per-name calls, total and self time, and per-edge call counts.

    Spans are stored in start order, so every parent index is below its
    children's.  Self time is a span's duration minus the durations of its
    direct children.
    """
    n = len(name)
    child_time = [0.0] * n
    edges: dict[tuple[int, int], int] = {}
    for i in range(n):
        p = parent[i]
        if p != ROOT:
            child_time[p] += end[i] - start[i]
            key = (name[p], name[i])
            edges[key] = edges.get(key, 0) + 1
    per_name: dict[str, dict] = {}
    for i in range(n):
        entry = per_name.setdefault(names[name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = end[i] - start[i]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - child_time[i]
    return {
        "spans": per_name,
        "edges": [[names[p], names[c], k] for (p, c), k in edges.items()],
    }


def merge(summaries) -> dict:
    """Combine the reductions of several processes and commands."""
    out = {"spans": {}, "edges": Counter(), "counters": Counter(), "maxima": Counter(),
           "leaf_calls": Counter(), "leaf_time": Counter()}
    for s in summaries:
        for nm, e in s["spans"].items():
            acc = out["spans"].setdefault(nm, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += e[k]
        for p, c, k in s["edges"]:
            out["edges"][(p, c)] += k
        for leaf, caller, k in s["leaf_calls"]:
            out["leaf_calls"][(leaf, caller)] += k
        for key in ("counters", "leaf_time"):
            for k, v in s[key].items():
                out[key][k] += v
        for k, v in s["maxima"].items():
            out["maxima"][k] = max(out["maxima"][k], v)
    return out


def read_spans(path):
    """Load a `.spans` file: (header, name, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def _pool_executor_class(rec: Recorder):
    """ProcessPoolExecutor whose result waits are spans of their own."""
    from concurrent.futures import ProcessPoolExecutor

    wait = rec.wrap(next, POOL_WAIT)
    shutdown_wait = rec.wrap(ProcessPoolExecutor.shutdown, POOL_WAIT)

    class TracedPool(ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            it = super().map(*args, **kwargs)
            while True:
                try:
                    yield wait(it)
                except StopIteration:
                    return

        def shutdown(self, *args, **kwargs):
            return shutdown_wait(self, *args, **kwargs)

    return TracedPool


def install(out_dir: str, run_id: int) -> Recorder:
    """Wrap every boundary of the imported twistlab package; returns the recorder."""
    import concurrent.futures
    from multiprocessing import util

    from twistlab import catalog, certify, cli, curves, densitylab, exactmath, jsonio, twistforge  # noqa: F401

    rec = Recorder(out_dir, run_id)
    modules = [m for k, m in sys.modules.items() if k == "twistlab" or k.startswith("twistlab.")]
    for mod_name, path, span_name in BOUNDARIES + LEAVES:
        mod = sys.modules[f"twistlab.{mod_name}"]
        owner_path, _, attr = path.rpartition(".")
        owner = functools.reduce(getattr, owner_path.split("."), mod) if owner_path else mod
        original = getattr(owner, attr)
        if (mod_name, path, span_name) in LEAVES:
            wrapped = rec.wrap_leaf(original, span_name)
        elif span_name == "exactmath.UniPoly.gcd":
            wrapped = rec.wrap_gcd(original, span_name)
        else:
            wrapped = rec.wrap(original, span_name)
        setattr(owner, attr, wrapped)
        if not owner_path:
            for other in modules:
                for k, v in list(vars(other).items()):
                    if v is original:
                        setattr(other, k, wrapped)
    # A private name: a sieve without it, or without `survivors`, counts 0.
    if hasattr(certify, "_ModCurve"):
        certify._ModCurve = _counting_mod_curve(certify._ModCurve, lambda: rec.counters)
    concurrent.futures.ProcessPoolExecutor = _pool_executor_class(rec)
    util.register_after_fork(rec, Recorder._in_pool_worker)
    return rec
