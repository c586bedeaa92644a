"""The benchmark tracer's bindings must exist on the package.

``bench/tracing.py`` wraps functions at the module attributes their callers
look them up through.  A refactor that drops or renames one of those
bindings breaks only traced benchmark runs, so it is checked here.
"""

import importlib


def test_every_tracer_target_resolves(bench_module):
    package = importlib.import_module("ifsmeasure")
    targets = bench_module("tracing")._TARGETS
    pairs = {(where, attr) for where, attr, _, _ in targets}
    assert ("markov", "preimage") in pairs
    assert ("measure.VectorMeasure", "evaluate") in pairs
    for where, attr in sorted(pairs):
        importlib.import_module(f"ifsmeasure.{where.split('.')[0]}")
        owner = package
        for part in where.split("."):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr)), (where, attr)
