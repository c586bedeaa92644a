"""Every demo runs to the end and imports only public names.

Each demo is executed in a subprocess with the package on its path and
must exit 0, with numpy warnings and deprecations turned into errors as
the suite's configuration turns them; they take seconds, not minutes.
Each is also parsed, and every name it imports from the package is
looked up in ``__all__``, so a name dropped from the public surface
shows up as such rather than as a bare traceback.  The package's
``__all__`` is its modules' lists in turn.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ifsmeasure

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_are_public(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "ifsmeasure"
             for alias in node.names]
    assert names, f"{demo.name} imports nothing from ifsmeasure"
    assert sorted(set(names) - set(ifsmeasure.__all__)) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    package_root = str(Path(ifsmeasure.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    errors = [f"-Werror::{w}" for w in (
        "RuntimeWarning", "DeprecationWarning", "PendingDeprecationWarning")]
    proc = subprocess.run([sys.executable, *errors, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_package_names_are_the_module_lists():
    modules = [importlib.import_module(f"ifsmeasure.{m}")
               for m in ("exceptions", "hilbert", "integral", "kernelops",
                         "markov", "measure", "mk_norm", "semigroup", "space")]
    names = [name for module in modules for name in module.__all__]
    assert ifsmeasure.__all__ == names + ["__version__"]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(ifsmeasure, name) is getattr(module, name)
