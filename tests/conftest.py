"""Shared test fixtures."""

import importlib.util
from pathlib import Path

import pytest

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
