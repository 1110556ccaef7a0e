"""Every function the benchmark tracer wraps still exists in twistlab, and
its counters still read the results they count."""

import functools
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from twistlab.catalog import FamilySpec, build
from twistlab.jsonio import family_to_json, write_json

ROOT = Path(__file__).resolve().parents[1]


def _tracer_tables():
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES, tracer.LEAVES


def test_traced_names_resolve():
    boundaries, leaves = _tracer_tables()
    assert boundaries and leaves
    for mod_name, path, span_name in boundaries + leaves:
        mod = importlib.import_module(f"twistlab.{mod_name}")
        target = functools.reduce(getattr, path.split("."), mod)
        assert callable(target), (mod_name, path, span_name)


# the census reads its verdicts from certify.ResidueTable, which the tracer
# does not name; only the certificate runs good_primes and the sieve.  The
# certificate's gcds feed the Q(t)-core gauges, which read the polynomials'
# coefficients
@pytest.mark.parametrize(
    "argv, spans, counters, maxima",
    [
        (["density", "--grid", "8", "--certify", "--threads", "1"], ("densitylab.certified_density",),
         ("enumerate_S.distinct",), ()),
        (["certify"], ("certify.sieve", "exactmath.UniPoly.gcd"), ("sieve.primes", "good_primes.primes"),
         ("gcd.max_coeff_bits",)),
    ],
    ids=["density", "certify"],
)
def test_traced_command_counts_its_work(tmp_path, argv, spans, counters, maxima):
    family = tmp_path / "thm4_5.json"
    with open(family, "w") as fh:
        write_json(family_to_json(build(FamilySpec.make("thm4_5"))), fh)
    trace = tmp_path / "trace"
    trace.mkdir()
    child = [sys.executable, str(ROOT / "bench" / "child.py"), "cmd", "--trace-dir", str(trace), "--run-id", "0"]
    done = subprocess.run(
        child + ["--", argv[0], "--family", str(family), *argv[1:]], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    (summary_path,) = trace.glob("0-*.json")
    summary = json.loads(summary_path.read_text())
    for span in spans:
        assert summary["spans"][span]["calls"] > 0, span
    for name in counters:
        assert summary["counters"].get(name, 0) > 0, name
    for name in maxima:
        assert summary["maxima"].get(name, 0) > 0, name
