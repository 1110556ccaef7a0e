"""Metric values: the per-layer metrics derived from a traced run's spans.

The names and units of all metrics, end-to-end and per-layer, are read from
BENCHMARK.json at the root of the checkout, the one list of them."""

from __future__ import annotations

import json
import os

from tracer import POOL_WAIT

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def _units(section: str) -> dict[str, str]:
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# Metric name -> unit, as listed in BENCHMARK.json.
END_TO_END = _units("end_to_end")
PER_LAYER = _units("per_layer")
# spans reported with .calls and .self_s
SPAN_NAMES = tuple(name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s"))


def select(values: dict, units: dict) -> dict:
    """The listed metrics as {name: {"value", "unit"}}; a listed metric that
    was not measured, or a measured one that is not listed, is an error."""
    if set(values) != set(units):
        raise KeyError(f"measured {sorted(set(values) - set(units))} not listed, "
                       f"listed {sorted(set(units) - set(values))} not measured")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _ratio(num, den, name, notes):
    if den:
        return num / den
    notes.append(f"{name}: no denominator on this workload, reported as 0")
    return 0.0


def layer_metrics(merged: dict, chains: int, overhead_frac: float) -> tuple[dict, list[str]]:
    """Per-layer metric values from a merged trace, plus notes on absent ones."""
    spans = merged["spans"]
    edges = merged["edges"]
    counters = merged["counters"]
    notes: list[str] = []
    out = {}
    for name in SPAN_NAMES:
        if name == "exactmath.is_probable_prime":
            calls = sum(k for (leaf, _), k in merged["leaf_calls"].items() if leaf == name)
            self_s = merged["leaf_time"][name]
        else:
            entry = spans.get(name, {"calls": 0, "self_s": 0.0})
            calls, self_s = entry["calls"], entry["self_s"]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out["exactmath.UniPoly.gcd.max_coeff_bits"] = merged["maxima"]["gcd.max_coeff_bits"]
    for bucket in ("calls_le12d", "calls_13_18d", "calls_19_24d", "calls_ge25d", "above_mr_bound"):
        out[f"exactmath.factorize.{bucket}"] = counters[f"factorize.{bucket}"]
    out["twistforge.validate_family.per_chain"] = _ratio(
        out["twistforge.validate_family.calls"], chains, "twistforge.validate_family.per_chain", notes)
    out["certify.certify_family.u0_per_cert"] = _ratio(
        edges[("certify.certify_family", "certify.specialize")], out["certify.certify_family.calls"],
        "certify.certify_family.u0_per_cert", notes)
    out["certify.good_primes.prime_tests_per_prime"] = _ratio(
        merged["leaf_calls"][("exactmath.is_probable_prime", "certify.good_primes")],
        counters["good_primes.primes"], "certify.good_primes.prime_tests_per_prime", notes)
    sieve_calls = out["certify.sieve.calls"]
    out["certify.sieve.primes_per_call"] = _ratio(counters["sieve.primes"], sieve_calls,
                                                  "certify.sieve.primes_per_call", notes)
    out["certify.sieve.candidates"] = _ratio(counters["sieve.candidates"], sieve_calls,
                                             "certify.sieve.candidates", notes)
    if sieve_calls and not counters["sieve.candidates"]:
        notes.append("certify.sieve.candidates: the sieve tested no counted candidate vectors")
    out["certify.sieve.independent_ratio"] = _ratio(counters["sieve.independent"], sieve_calls,
                                                    "certify.sieve.independent_ratio", notes)
    pairs = edges[("densitylab.enumerate_S", "densitylab.squarefree_value")]
    out["densitylab.distinct_ratio"] = _ratio(counters["enumerate_S.distinct"], pairs,
                                              "densitylab.distinct_ratio", notes)
    fallback = edges[("densitylab.squarefree_value", "exactmath.squarefree_part_int")]
    out["densitylab.split_ratio"] = _ratio(pairs - fallback, pairs, "densitylab.split_ratio", notes)
    out["densitylab.pool_wait_s"] = spans.get(POOL_WAIT, {"total_s": 0.0})["total_s"]
    out["jsonio.dump_json.bytes"] = counters["dump_json.bytes"]
    out["trace.overhead_frac"] = overhead_frac
    for name in SPAN_NAMES:
        if out[f"{name}.calls"] == 0:
            notes.append(f"{name}: not called on this workload")
    return out, notes


def largest_self_time(merged: dict) -> tuple[str, float]:
    """The span name with the most self time, pool waits excluded."""
    best = max(((e["self_s"], n) for n, e in merged["spans"].items() if n != POOL_WAIT), default=(0.0, ""))
    return best[1], best[0]
