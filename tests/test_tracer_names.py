"""Every function the benchmark tracer wraps still exists in twistlab."""

import functools
import importlib
import importlib.util
from pathlib import Path


def _tracer_tables():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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
