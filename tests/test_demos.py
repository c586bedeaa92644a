"""The demos must import only public names.

The demos are not run by the test suite (one takes minutes), so a name
dropped from ``ifsmeasure.__all__`` would break them unseen.  Each demo
is parsed, not executed, and every name it imports from the package is
looked up in ``__all__``.
"""

import ast
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
