"""Tests of the benchmark's own machinery (stdlib unittest; no CLI runs).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
import workloads  # noqa: E402


class ReduceSpansTest(unittest.TestCase):
    # root A [0, 10] with children B [1, 4] and C [5, 9]; C has child D [6, 8];
    # a second root E [11, 12]; B and E share a name, as do two boundaries.
    names = ["A", "B", "C", "D"]
    name = [0, 1, 2, 3, 1]
    parent = [tracer.ROOT, 0, 0, 2, tracer.ROOT]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 8.0, 12.0]

    def test_self_time_subtracts_direct_children_only(self):
        got = tracer.reduce_spans(self.names, self.name, self.parent, self.start, self.end)["spans"]
        self.assertEqual(got["A"], {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 4.0})
        self.assertEqual(got["B"], {"calls": 2, "total_s": 4.0, "self_s": 4.0})
        self.assertEqual(got["C"], {"calls": 1, "total_s": 4.0, "self_s": 2.0})
        self.assertEqual(got["D"], {"calls": 1, "total_s": 2.0, "self_s": 2.0})

    def test_self_times_partition_root_time(self):
        got = tracer.reduce_spans(self.names, self.name, self.parent, self.start, self.end)["spans"]
        self.assertAlmostEqual(sum(e["self_s"] for e in got.values()), 10.0 + 1.0)

    def test_edges_count_parent_child_names(self):
        got = tracer.reduce_spans(self.names, self.name, self.parent, self.start, self.end)["edges"]
        self.assertEqual(sorted(map(tuple, got)), [("A", "B", 1), ("A", "C", 1), ("C", "D", 1)])

    def test_recorder_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            rec = tracer.Recorder(tmp, run_id=7)
            inner = rec.wrap(lambda: None, "inner")
            outer = rec.wrap(lambda: (inner(), inner()), "outer")
            outer()
            rec.flush()
            [spans_file] = [f for f in os.listdir(tmp) if f.endswith(".spans")]
            header, name, parent, start, end = tracer.read_spans(os.path.join(tmp, spans_file))
            self.assertEqual(header["run_id"], 7)
            self.assertEqual([header["names"][i] for i in name], ["outer", "inner", "inner"])
            self.assertEqual(list(parent), [tracer.ROOT, 0, 0])
            summary = json.load(open(os.path.join(tmp, spans_file[:-6] + ".json")))
            merged = tracer.merge([summary, summary])
            self.assertEqual(merged["spans"]["inner"]["calls"], 4)
            self.assertEqual(merged["edges"][("outer", "inner")], 4)


class CandidateCountTest(unittest.TestCase):
    def test_counts_the_survivors_tested_at_each_prime(self):
        counters = {"sieve.candidates": 0}
        curve = tracer._counting_mod_curve(lambda p: p, lambda: counters)

        def sieve(primes):
            survivors = list(range(10))
            for p in primes:
                curve(p)
                survivors = survivors[: len(survivors) // 2]

        sieve([3, 5, 7])
        self.assertEqual(counters["sieve.candidates"], 10 + 5 + 2)


class CensusCheckTest(unittest.TestCase):
    reference = {"census": {"fam": {"counts": [2, 3], "certified_counts": [1, 2], "certified_d": 2,
                                    "d_digest": workloads.d_digest({"5": [1, 1], "-7": [1, 2], "11": [2, 3]})}}}

    def check(self, certified_counts, certified):
        report = {"witnesses": {"5": [1, 1], "-7": [1, 2], "11": [2, 3]}, "counts": [2, 3],
                  "certified_counts": certified_counts,
                  "certifications": {d: {"certified": c} for d, c in zip(("5", "-7", "11"), certified)}}
        chain = {"kind": "census", "family": "fam", "outputs": {"density": "census.json"}}
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "census.json"), "w") as fh:
                json.dump(report, fh)
            errors, units, _ = workloads.check_chain(chain, tmp, self.reference)
        return errors, units

    def test_reference_outcome_passes(self):
        self.assertEqual(self.check([1, 2], [True, False, True]), ([], 3))

    def test_more_certified_passes(self):
        self.assertEqual(self.check([2, 3], [True, True, True]), ([], 3))

    def test_fewer_certified_fails(self):
        errors, _ = self.check([1, 1], [True, False, False])
        self.assertEqual(len(errors), 2)


if __name__ == "__main__":
    unittest.main()
