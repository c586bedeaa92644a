"""The benchmark tracer's bindings must exist on the package.

``bench/tracing.py`` wraps functions at the module attributes their callers
look them up through.  A refactor that drops or renames one of those
bindings breaks only traced benchmark runs, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    if not TRACING.is_file():
        pytest.skip("bench/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._TARGETS


def test_every_tracer_target_resolves():
    package = importlib.import_module("ifsmeasure")
    targets = _targets()
    pairs = {(where, attr) for where, attr, _, _ in targets}
    assert ("markov", "preimage") in pairs
    assert ("measure.VectorMeasure", "evaluate") in pairs
    for where, attr in sorted(pairs):
        importlib.import_module(f"ifsmeasure.{where.split('.')[0]}")
        owner = package
        for part in where.split("."):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), (where, attr)
