"""Shared test fixtures.

Every ``ifsmeasure`` module is imported here, before any test runs.
Hypothesis adds the literals of loaded local modules to the values it
draws, so without this a property test would draw different cases alone
than after a test that imports, say, ``_floatcsv``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ifsmeasure

for _module in pkgutil.iter_modules(ifsmeasure.__path__):
    importlib.import_module(f"ifsmeasure.{_module.name}")

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_module():
    """Load a module of ``bench/`` by name; skip when bench/ is absent."""
    def load(name):
        path = BENCH / f"{name}.py"
        if not path.is_file():
            pytest.skip("bench/ is not part of this checkout")
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load
